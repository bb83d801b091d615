#include "runtime/interp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/eval_ops.h"

namespace sit::runtime {

using ir::BinOp;
using ir::Expr;
using ir::ExprP;
using ir::Stmt;
using ir::StmtP;
using ir::UnOp;
using ir::Value;

namespace {

bool g_debug_channel_checks = false;

// Execution context for one invocation (work, init, or a handler).
struct Ctx {
  FilterState* state{nullptr};
  std::unordered_map<std::string, Value> locals;
  ir::InTape* in{nullptr};
  ir::OutTape* out{nullptr};
  OpCounts* counts{nullptr};
  const MessageSink* sink{nullptr};
  const ir::FilterSpec* spec{nullptr};
  std::int64_t pops{0};  // pops so far this invocation (debug bounds check)

  void count_bin(const Value& r, BinOp op) {
    if (!counts) return;
    switch (op) {
      case BinOp::Div:
      case BinOp::Mod:
        ++counts->divs;
        break;
      case BinOp::Pow:
        ++counts->trans;
        break;
      default:
        if (r.is_int()) {
          ++counts->int_ops;
        } else {
          ++counts->flops;
        }
        break;
    }
  }
};

Value eval(const ExprP& e, Ctx& ctx);

Value read_var(const std::string& name, Ctx& ctx) {
  auto lit = ctx.locals.find(name);
  if (lit != ctx.locals.end()) return lit->second;
  auto sit_ = ctx.state->scalars.find(name);
  if (sit_ != ctx.state->scalars.end()) {
    if (ctx.counts) ++ctx.counts->mem;
    return sit_->second;
  }
  throw std::runtime_error("undefined variable '" + name + "'");
}

std::vector<Value>& array_of(const std::string& name, Ctx& ctx) {
  auto it = ctx.state->arrays.find(name);
  if (it == ctx.state->arrays.end()) {
    throw std::runtime_error("undefined array '" + name + "'");
  }
  return it->second;
}

// apply_bin / apply_un live in runtime/eval_ops.h, beside the typed kernels
// they must agree with.

void count_un(UnOp op, const Value& a, Ctx& ctx) {
  if (!ctx.counts) return;
  switch (op) {
    case UnOp::Neg:
    case UnOp::Abs:
      a.is_int() ? ++ctx.counts->int_ops : ++ctx.counts->flops;
      break;
    case UnOp::LNot:
    case UnOp::BNot:
      ++ctx.counts->int_ops;
      break;
    case UnOp::Sin:
    case UnOp::Cos:
    case UnOp::Tan:
    case UnOp::Exp:
    case UnOp::Log:
    case UnOp::Sqrt:
      ++ctx.counts->trans;
      break;
    case UnOp::Floor:
    case UnOp::Ceil:
    case UnOp::Round:
      ++ctx.counts->flops;
      break;
    case UnOp::ToInt:
    case UnOp::ToFloat:
      break;
  }
}

Value eval(const ExprP& e, Ctx& ctx) {
  switch (e->kind) {
    case Expr::Kind::IntConst:
      return Value(e->ival);
    case Expr::Kind::FloatConst:
      return Value(e->fval);
    case Expr::Kind::Var:
      return read_var(e->name, ctx);
    case Expr::Kind::ArrayRef: {
      const auto idx = eval(e->a, ctx).as_int();
      auto& arr = array_of(e->name, ctx);
      if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
        throw std::runtime_error("array index out of bounds: " + e->name + "[" +
                                 std::to_string(idx) + "]");
      }
      if (ctx.counts) ++ctx.counts->mem;
      return arr[static_cast<std::size_t>(idx)];
    }
    case Expr::Kind::Peek: {
      if (!ctx.in) throw std::runtime_error("peek outside work function");
      const auto off = eval(e->a, ctx).as_int();
      if (g_debug_channel_checks && ctx.spec) {
        const std::int64_t window = std::max(ctx.spec->peek, ctx.spec->pop);
        if (off < 0 || ctx.pops + off >= window) {
          throw std::runtime_error(
              "peek out of bounds in '" + ctx.spec->name + "': peek(" +
              std::to_string(off) + ") after " + std::to_string(ctx.pops) +
              " pop(s) exceeds the declared window of " +
              std::to_string(window));
        }
      }
      if (ctx.counts) ++ctx.counts->channel;
      return Value(ctx.in->peek_item(static_cast<int>(off)));
    }
    case Expr::Kind::Pop: {
      if (!ctx.in) throw std::runtime_error("pop outside work function");
      if (ctx.counts) ++ctx.counts->channel;
      ++ctx.pops;
      return Value(ctx.in->pop_item());
    }
    case Expr::Kind::Bin: {
      // Short-circuit logical operators; everything else is strict.
      if (e->bop == BinOp::LAnd) {
        if (ctx.counts) ++ctx.counts->int_ops;
        if (!eval(e->a, ctx).truthy()) return Value(false);
        return Value(eval(e->b, ctx).truthy());
      }
      if (e->bop == BinOp::LOr) {
        if (ctx.counts) ++ctx.counts->int_ops;
        if (eval(e->a, ctx).truthy()) return Value(true);
        return Value(eval(e->b, ctx).truthy());
      }
      const Value a = eval(e->a, ctx);
      const Value b = eval(e->b, ctx);
      const Value r = apply_bin(e->bop, a, b);
      ctx.count_bin(r, e->bop);
      return r;
    }
    case Expr::Kind::Un: {
      const Value a = eval(e->a, ctx);
      count_un(e->uop, a, ctx);
      return apply_un(e->uop, a);
    }
    case Expr::Kind::Cond: {
      if (ctx.counts) ++ctx.counts->int_ops;
      return eval(e->a, ctx).truthy() ? eval(e->b, ctx) : eval(e->c, ctx);
    }
  }
  throw std::runtime_error("unhandled expr kind");
}

void exec(const StmtP& s, Ctx& ctx);

void store_var(const std::string& name, const Value& v, Ctx& ctx) {
  auto sit_ = ctx.state->scalars.find(name);
  if (sit_ != ctx.state->scalars.end()) {
    // Preserve the declared type of integer state variables.
    if (ctx.counts) ++ctx.counts->mem;
    sit_->second = v;
    return;
  }
  ctx.locals[name] = v;
}

void exec(const StmtP& s, Ctx& ctx) {
  if (!s) return;
  switch (s->kind) {
    case Stmt::Kind::Block:
      for (const auto& c : s->stmts) exec(c, ctx);
      break;
    case Stmt::Kind::Assign:
      store_var(s->name, eval(s->value, ctx), ctx);
      break;
    case Stmt::Kind::ArrayAssign: {
      const auto idx = eval(s->index, ctx).as_int();
      const Value v = eval(s->value, ctx);
      auto& arr = array_of(s->name, ctx);
      if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
        throw std::runtime_error("array store out of bounds: " + s->name + "[" +
                                 std::to_string(idx) + "]");
      }
      if (ctx.counts) ++ctx.counts->mem;
      arr[static_cast<std::size_t>(idx)] = v;
      break;
    }
    case Stmt::Kind::Push: {
      if (!ctx.out) throw std::runtime_error("push outside work function");
      const Value v = eval(s->value, ctx);
      if (ctx.counts) ++ctx.counts->channel;
      ctx.out->push_item(v.as_double());
      break;
    }
    case Stmt::Kind::PopN: {
      if (!ctx.in) throw std::runtime_error("pop outside work function");
      const auto n = eval(s->index, ctx).as_int();
      if (n > 0) {
        if (ctx.counts) ctx.counts->channel += n;
        ctx.pops += n;
        ctx.in->pop_many(static_cast<int>(n));
      }
      break;
    }
    case Stmt::Kind::For: {
      const auto lo = eval(s->lo, ctx).as_int();
      const auto hi = eval(s->hi, ctx).as_int();
      const auto step = eval(s->step, ctx).as_int();
      if (step <= 0) throw std::runtime_error("for loop step must be positive");
      for (std::int64_t i = lo; i < hi; i += step) {
        ctx.locals[s->name] = Value(i);
        if (ctx.counts) {
          ++ctx.counts->int_ops;  // increment
          ++ctx.counts->int_ops;  // bound compare
        }
        exec(s->body, ctx);
      }
      break;
    }
    case Stmt::Kind::If:
      if (ctx.counts) ++ctx.counts->int_ops;
      if (eval(s->cond, ctx).truthy()) {
        exec(s->body, ctx);
      } else {
        exec(s->elseBody, ctx);
      }
      break;
    case Stmt::Kind::Send: {
      SentMessage m;
      m.portal = s->name;
      m.method = s->method;
      for (const auto& a : s->args) m.args.push_back(eval(a, ctx));
      m.lat_min = s->latMin;
      m.lat_max = s->latMax;
      if (ctx.sink && *ctx.sink) (*ctx.sink)(m);
      break;
    }
  }
}

}  // namespace

void set_debug_channel_checks(bool enabled) { g_debug_channel_checks = enabled; }
bool debug_channel_checks() { return g_debug_channel_checks; }

FilterState Interp::init_state(const ir::FilterSpec& spec) {
  FilterState st;
  for (const auto& d : spec.state) {
    if (d.is_array) {
      std::vector<Value> arr(static_cast<std::size_t>(d.size),
                             d.is_int ? Value(std::int64_t{0}) : Value(0.0));
      for (std::size_t i = 0; i < d.init.size() && i < arr.size(); ++i) {
        arr[i] = d.init[i];
      }
      st.arrays[d.name] = std::move(arr);
    } else {
      Value v = d.is_int ? Value(std::int64_t{0}) : Value(0.0);
      if (!d.init.empty()) v = d.init[0];
      st.scalars[d.name] = v;
    }
  }
  if (spec.init) {
    Ctx ctx;
    ctx.state = &st;
    ctx.spec = &spec;
    exec(spec.init, ctx);
  }
  return st;
}

void Interp::run_work(const ir::FilterSpec& spec, FilterState& state,
                      ir::InTape& in, ir::OutTape& out, OpCounts* counts,
                      const MessageSink* sink) {
  Ctx ctx;
  ctx.state = &state;
  ctx.in = &in;
  ctx.out = &out;
  ctx.counts = counts;
  ctx.sink = sink;
  ctx.spec = &spec;
  exec(spec.work, ctx);
}

void Interp::run_handler(const ir::FilterSpec& spec, FilterState& state,
                         const std::string& method,
                         const std::vector<ir::Value>& args) {
  auto it = spec.handlers.find(method);
  if (it == spec.handlers.end()) {
    throw std::runtime_error("filter '" + spec.name + "' has no handler '" +
                             method + "'");
  }
  const ir::Handler& h = it->second;
  if (h.params.size() != args.size()) {
    throw std::runtime_error("handler '" + method + "' arity mismatch");
  }
  Ctx ctx;
  ctx.state = &state;
  ctx.spec = &spec;
  for (std::size_t i = 0; i < args.size(); ++i) ctx.locals[h.params[i]] = args[i];
  exec(h.body, ctx);
}

}  // namespace sit::runtime
