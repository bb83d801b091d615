// Optimization-selection golden table.
//
// Compiles every built-in app at -O1 and -O2 and renders what selection
// decided: each rewrite record (pass, site, applied, note, modeled costs),
// the graph delta of every linear pass (actors/edges, changed flag, modeled
// cost), and a digest of the final graph's StreamIt rendering.  The table is
// compared against tests/data/selection_golden.txt, so any change to the
// selection costing that alters a decision, a cost beyond rounding, or the
// compiled graph fails here.  Numbers compare with a relative tolerance of
// 1e-12 (costs summed in a different order may differ in the last ulp);
// everything else compares exactly.  On mismatch the rendered table is
// written to selection_golden.actual.txt in the working directory.
//
// A second test checks that the cost selection composes for its chosen plan
// equals node_cost() of the graph built from that plan, and that the input
// tree stays untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "ir/streamit_syntax.h"
#include "linear/optimize.h"
#include "opt/compile.h"

namespace sit::opt {
namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool is_linear_pass(const std::string& name) {
  return name == "linear-combine" || name == "frequency";
}

// One tab-separated line per fact; see the file comment.
std::string selection_table() {
  std::ostringstream os;
  for (const apps::AppInfo& app : apps::all_apps()) {
    for (const OptLevel level : {OptLevel::O1, OptLevel::O2}) {
      const std::string tag =
          app.name + (level == OptLevel::O1 ? "\tO1" : "\tO2");
      CompileOptions opts;
      opts.level = level;
      PassContext ctx;
      const sched::CompiledProgram prog = compile(app.make(), opts, &ctx);
      for (const linear::RewriteRecord& r : ctx.rewrites) {
        os << tag << "\trec\t" << r.pass << "\t" << r.site << "\t"
           << (r.applied ? 1 : 0) << "\t" << num(r.cost_before) << "\t"
           << num(r.cost_after) << "\t" << r.note << "\n";
      }
      for (const obs::PassSnapshot& s : ctx.stats) {
        if (!is_linear_pass(s.name)) continue;
        os << tag << "\tpass\t" << s.name << "\t" << s.actors_before << "\t"
           << s.actors_after << "\t" << s.edges_before << "\t" << s.edges_after
           << "\t" << (s.changed ? 1 : 0) << "\t" << num(s.cost_before) << "\t"
           << num(s.cost_after) << "\n";
      }
      os << tag << "\tgraph\t" << std::hex << fnv1a(ir::to_streamit(prog.graph))
         << std::dec << "\n";
    }
  }
  return os.str();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(s);
  while (std::getline(is, cur, sep)) out.push_back(cur);
  return out;
}

bool parse_number(const std::string& s, double* v) {
  if (s.empty()) return false;
  char* end = nullptr;
  *v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

// Fields equal exactly, or both numeric within relative error 1e-12.
bool fields_match(const std::string& want, const std::string& got) {
  if (want == got) return true;
  double a = 0.0;
  double b = 0.0;
  if (!parse_number(want, &a) || !parse_number(got, &b)) return false;
  return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

TEST(SelectionGolden, DecisionsCostsAndGraphsUnchanged) {
  const std::string path = std::string(SIT_TEST_DATA_DIR) + "/selection_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden table " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  const std::string actual = selection_table();
  const std::vector<std::string> want = split(golden.str(), '\n');
  const std::vector<std::string> got = split(actual, '\n');
  bool ok = want.size() == got.size();
  EXPECT_EQ(want.size(), got.size()) << "line count";
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    const std::vector<std::string> wf = split(want[i], '\t');
    const std::vector<std::string> gf = split(got[i], '\t');
    bool line_ok = wf.size() == gf.size();
    for (std::size_t f = 0; line_ok && f < wf.size(); ++f) {
      line_ok = fields_match(wf[f], gf[f]);
    }
    EXPECT_TRUE(line_ok) << "line " << i + 1 << "\n  want: " << want[i]
                         << "\n  got:  " << got[i];
    ok = ok && line_ok;
  }
  if (!ok) {
    std::ofstream("selection_golden.actual.txt") << actual;
  }
}

bool near(double want, double got) {
  return std::fabs(want - got) <=
         1e-12 * std::max(std::fabs(want), std::fabs(got));
}

TEST(SelectionPlanCost, ComposedCostEqualsMaterializedGraph) {
  // Selection costs pipeline splits by composing their halves and linear
  // candidates from their reps; the composed cost of the selected plan must
  // be what node_cost() measures on the graph built from it.  The input
  // tree is neither mutated nor shared with the result.
  for (const apps::AppInfo& app : apps::all_apps()) {
    CompileOptions copts;
    copts.passes = "validate,analysis-gate,const-fold";
    const ir::NodeP input = compile(app.make(), copts).graph;
    const std::string rendered = ir::to_streamit(input);
    std::set<const ir::Node*> input_nodes;
    ir::visit(input, [&](const ir::NodeP& n) { input_nodes.insert(n.get()); });
    for (const auto& [comb, freq] :
         {std::pair{true, false}, std::pair{false, true}, std::pair{true, true}}) {
      linear::OptimizeOptions o;
      o.enable_combination = comb;
      o.enable_frequency = freq;
      linear::OptimizeStats stats;
      const ir::NodeP out = linear::optimize_selection(input, o, &stats);
      const linear::NodeCost want = linear::node_cost(out);
      const linear::NodeCost& got = stats.plan_cost;
      const std::string what = app.name + (comb ? " combine" : "") +
                               (freq ? " frequency" : "");
      EXPECT_TRUE(near(want.flops_per_ss, got.flops_per_ss)) << what;
      EXPECT_TRUE(near(want.ops_per_ss, got.ops_per_ss)) << what;
      EXPECT_TRUE(near(want.sync_per_ss, got.sync_per_ss)) << what;
      EXPECT_TRUE(near(want.meas_ops_per_ss, got.meas_ops_per_ss)) << what;
      EXPECT_EQ(want.measured_actors, got.measured_actors) << what;
      EXPECT_EQ(want.in_per_ss, got.in_per_ss) << what;
      EXPECT_EQ(want.out_per_ss, got.out_per_ss) << what;
      EXPECT_TRUE(near(want.per_item(o.sync_weight), stats.cost_after)) << what;
      ir::visit(out, [&](const ir::NodeP& n) {
        EXPECT_EQ(input_nodes.count(n.get()), 0u) << what << ": " << n->name;
      });
    }
    EXPECT_EQ(ir::to_streamit(input), rendered) << app.name;
  }
}

}  // namespace
}  // namespace sit::opt
