#include "linear/linear_rep.h"

#include <sstream>
#include <stdexcept>

#include "ir/ast.h"

namespace sit::linear {

std::vector<double> apply(const LinearRep& rep, const std::vector<double>& window) {
  if (static_cast<int>(window.size()) != rep.peek) {
    throw std::invalid_argument("window size != peek");
  }
  std::vector<double> out(static_cast<std::size_t>(rep.push));
  for (int o = 0; o < rep.push; ++o) {
    double acc = rep.b[static_cast<std::size_t>(o)];
    for (int i = 0; i < rep.peek; ++i) {
      acc += rep.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) *
             window[static_cast<std::size_t>(i)];
    }
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

ir::FilterSpec to_filter(const LinearRep& rep, const std::string& name) {
  using namespace ir;
  FilterSpec f;
  f.name = name;
  f.peek = rep.peek;
  f.pop = rep.pop;
  f.push = rep.push;
  std::vector<StmtP> body;
  std::vector<int> nz;
  for (int o = 0; o < rep.push; ++o) {
    const auto row = static_cast<std::size_t>(o);
    nz.clear();
    for (int i = 0; i < rep.peek; ++i) {
      if (rep.A.at(row, static_cast<std::size_t>(i)) != 0.0) nz.push_back(i);
    }
    const double cst = rep.b[row];
    if (nz.empty()) {
      body.push_back(push(fconst(cst != 0.0 ? cst : 0.0)));
      continue;
    }
    std::string coef = std::to_string(o);
    coef.insert(coef.begin(), 'c');  // "c<o>"
    VarDecl d;
    d.name = coef;
    d.is_array = true;
    d.size = nz.back() + 1;
    d.init.assign(static_cast<std::size_t>(d.size), Value(0.0));
    for (const int i : nz) {
      d.init[static_cast<std::size_t>(i)] = Value(rep.A.at(row, static_cast<std::size_t>(i)));
    }
    f.state.push_back(std::move(d));
    // -0.0 is the exact additive identity (-0.0 + x == x bit for bit, for
    // every x including -0.0 and NaN), so starting from it reproduces the
    // unrolled sum  c0*w0 + c1*w1 + ...  exactly.
    body.push_back(assign("acc", fconst(cst != 0.0 ? cst : -0.0)));
    const StmtP term =
        assign("acc", bin(BinOp::Add, var("acc"),
                          bin(BinOp::Mul, peek(var("i")), aref(coef, var("i")))));
    // One strided loop per maximal arithmetic progression of the nonzero
    // columns, in column order, so the summation order is unchanged and a
    // zero coefficient is never multiplied.
    for (std::size_t k = 0; k < nz.size();) {
      std::size_t e = k + 1;
      const int st = e < nz.size() ? nz[e] - nz[k] : 1;
      while (e < nz.size() && nz[e] - nz[e - 1] == st) ++e;
      body.push_back(for_loop_step("i", iconst(nz[k]), iconst(nz[e - 1] + 1),
                                   iconst(st), term));
      k = e;
    }
    body.push_back(push(var("acc")));
  }
  if (rep.pop > 0) body.push_back(pop_n(iconst(rep.pop)));
  f.work = block(std::move(body));
  return f;
}

bool operator==(const LinearRep& a, const LinearRep& b) {
  return a.peek == b.peek && a.pop == b.pop && a.push == b.push && a.A == b.A &&
         a.b == b.b;
}

std::string LinearRep::describe() const {
  std::ostringstream os;
  os << "linear(peek=" << peek << " pop=" << pop << " push=" << push << ")\n";
  for (int o = 0; o < push; ++o) {
    os << "  y" << o << " =";
    bool any = false;
    for (int i = 0; i < peek; ++i) {
      const double c = A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
      if (c == 0.0) continue;
      os << (any ? " + " : " ") << c << "*w" << i;
      any = true;
    }
    if (b[static_cast<std::size_t>(o)] != 0.0 || !any) {
      os << (any ? " + " : " ") << b[static_cast<std::size_t>(o)];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sit::linear
