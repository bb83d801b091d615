// Differential pipeline tests.
//
// The contract of the compilation pipeline is twofold:
//
//   1. At a fixed optimization level, the compiled artifact computes the
//      same stream BIT-EQUAL under every engine (tree interpreter, bytecode
//      VM, fused steady-state trace, 4-thread runtime) -- same outputs, same
//      firings, same operation counts per engine pair that shares a counting
//      discipline, same cumulative channel counters, same filter state.
//   2. Across optimization levels, outputs are numerically equivalent but
//      not necessarily bit-equal: linear combination and frequency
//      translation reassociate floating-point arithmetic, which the paper's
//      transformations (and IEEE754) only preserve up to rounding.  We
//      assert tight relative-error equivalence for the stream prefix.
//
// A seeded permutation test additionally shuffles the commuting middle
// passes (const-fold, linear-extract, linear-combine, frequency) and checks
// that every ordering preserves the O0 semantics: the pipeline's correctness
// must not depend on one blessed pass order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "opt/compile.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit::opt {
namespace {

// Drop the final sink so the program output edge is observable.
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

void expect_bit_equal(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-equality: EXPECT_EQ on doubles, not NEAR.
    EXPECT_EQ(a[i], b[i]) << what << " item " << i;
  }
}

template <typename Ex>
std::vector<double> run_items(Ex& ex, int items) {
  std::vector<double> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < items && ++guard < 4000) {
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(static_cast<std::size_t>(items));
  return out;
}

sched::CompiledProgram compile_level(const std::string& app, OptLevel level) {
  CompileOptions copts;
  copts.level = level;
  return compile(observable(apps::make_app(app)), copts);
}

// ---- 1. engines are interchangeable at every level --------------------------

// gtest lists each case with the raw bytes of its parameter, so the
// parameter holds two padding-free indices rather than a pointer: a pointer's
// value moves with the test binary's layout and would rename the case.
struct LevelCase {
  std::size_t app;    // index into apps::all_apps()
  std::size_t level;  // 0, 1, 2 for -O0, -O1, -O2
};

constexpr OptLevel kLevels[] = {OptLevel::O0, OptLevel::O1, OptLevel::O2};

class EngineDiffP : public ::testing::TestWithParam<LevelCase> {};

TEST_P(EngineDiffP, EnginesBitEqualOnCompiledArtifact) {
  const sched::CompiledProgram prog =
      compile_level(apps::all_apps()[GetParam().app].name,
                    kLevels[GetParam().level]);

  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(prog, topt);

  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(prog, vopt);

  sched::ExecOptions fopt;
  fopt.engine = sched::Engine::Fused;
  sched::Executor fused(prog, fopt);

  sched::ExecOptions thopt;
  thopt.threads = 4;
  sched::ThreadedExecutor thr(prog, thopt);

  const auto tout = tree.run_steady(3);
  const auto vout = vm.run_steady(3);
  const auto fout = fused.run_steady(3);
  const auto thout = thr.run_steady(3);
  expect_bit_equal(tout, vout, "tree vs vm");
  expect_bit_equal(tout, fout, "tree vs fused");
  expect_bit_equal(tout, thout, "tree vs 4-thread");

  // Same firings and OpCounts: the sequential engines share the counting
  // discipline exactly (the fused trace replicates the VM's tally points
  // instruction for instruction); the threaded runtime tallies the same
  // firings.
  EXPECT_EQ(tree.firings(), vm.firings());
  EXPECT_EQ(tree.firings(), fused.firings());
  EXPECT_EQ(tree.firings(), thr.firings());
  EXPECT_EQ(tree.total_ops().flops, vm.total_ops().flops);
  EXPECT_DOUBLE_EQ(tree.total_ops().weighted(), vm.total_ops().weighted());
  EXPECT_EQ(tree.total_ops().flops, thr.total_ops().flops);

  // The fused engine's per-actor OpCounts must be bit-identical to the VM's
  // in every field, whether the steady state ran on the whole-program trace
  // or fell back per-actor.
  ASSERT_EQ(fused.actor_ops().size(), vm.actor_ops().size());
  for (std::size_t a = 0; a < vm.actor_ops().size(); ++a) {
    const auto& vo = vm.actor_ops()[a];
    const auto& fo = fused.actor_ops()[a];
    EXPECT_EQ(vo.int_ops, fo.int_ops) << "actor " << a;
    EXPECT_EQ(vo.flops, fo.flops) << "actor " << a;
    EXPECT_EQ(vo.divs, fo.divs) << "actor " << a;
    EXPECT_EQ(vo.trans, fo.trans) << "actor " << a;
    EXPECT_EQ(vo.mem, fo.mem) << "actor " << a;
    EXPECT_EQ(vo.channel, fo.channel) << "actor " << a;
  }

  // Same cumulative channel counters n(t)/p(t) on every edge.  The fused
  // engine lowers internal channels to trace buffers but still advances
  // their cumulative counters by the per-iteration traffic.
  const auto& g = prog.flat;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const int ei = static_cast<int>(e);
    EXPECT_EQ(tree.channel(ei).total_pushed(), vm.channel(ei).total_pushed())
        << "edge " << e;
    EXPECT_EQ(tree.channel(ei).total_popped(), vm.channel(ei).total_popped())
        << "edge " << e;
    EXPECT_EQ(tree.channel(ei).total_pushed(), fused.channel(ei).total_pushed())
        << "edge " << e;
    EXPECT_EQ(tree.channel(ei).total_popped(), fused.channel(ei).total_popped())
        << "edge " << e;
    EXPECT_EQ(tree.channel(ei).total_pushed(), thr.edge_pushed(ei))
        << "edge " << e;
    EXPECT_EQ(tree.channel(ei).total_popped(), thr.edge_popped(ei))
        << "edge " << e;
  }

  // Same filter state after the run: every scalar and array element the VM
  // left behind must match what the fused trace left behind bit-for-bit.
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    const auto& vs = vm.filter_state(static_cast<int>(a));
    const auto& fs = fused.filter_state(static_cast<int>(a));
    ASSERT_EQ(vs.scalars.size(), fs.scalars.size()) << "actor " << a;
    for (const auto& [name, val] : vs.scalars) {
      const auto it = fs.scalars.find(name);
      ASSERT_NE(it, fs.scalars.end()) << "actor " << a << " scalar " << name;
      EXPECT_EQ(val.is_int(), it->second.is_int())
          << "actor " << a << " scalar " << name;
      EXPECT_EQ(val.as_double(), it->second.as_double())
          << "actor " << a << " scalar " << name;
    }
    ASSERT_EQ(vs.arrays.size(), fs.arrays.size()) << "actor " << a;
    for (const auto& [name, arr] : vs.arrays) {
      const auto it = fs.arrays.find(name);
      ASSERT_NE(it, fs.arrays.end()) << "actor " << a << " array " << name;
      ASSERT_EQ(arr.size(), it->second.size())
          << "actor " << a << " array " << name;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        EXPECT_EQ(arr[i].as_double(), it->second[i].as_double())
            << "actor " << a << " array " << name << "[" << i << "]";
      }
    }
  }
}

std::vector<LevelCase> engine_cases() {
  std::vector<LevelCase> cases;
  for (std::size_t app = 0; app < apps::all_apps().size(); ++app) {
    for (std::size_t level = 0; level < std::size(kLevels); ++level) {
      cases.push_back({app, level});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<LevelCase>& info) {
  return apps::all_apps()[info.param.app].name + "_O" +
         std::to_string(info.param.level);
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineDiffP,
                         ::testing::ValuesIn(engine_cases()), case_name);

// ---- 2. levels are numerically equivalent -----------------------------------

class LevelDiffP : public ::testing::TestWithParam<const char*> {};

TEST_P(LevelDiffP, OptLevelsComputeTheSameStream) {
  constexpr int kItems = 60;
  constexpr double kTol = 1e-7;  // relative; FP reassociation only
  sched::Executor e0(compile_level(GetParam(), OptLevel::O0));
  const auto base = run_items(e0, kItems);
  for (OptLevel level : {OptLevel::O1, OptLevel::O2}) {
    sched::Executor ex(compile_level(GetParam(), level));
    const auto got = run_items(ex, kItems);
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_NEAR(base[i], got[i], kTol * std::max(1.0, std::fabs(base[i])))
          << GetParam() << " O" << (level == OptLevel::O1 ? 1 : 2) << " item "
          << i;
    }
  }
}

std::vector<const char*> all_app_names() {
  std::vector<const char*> names;
  for (const auto& info : apps::all_apps()) names.push_back(info.name.c_str());
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllApps, LevelDiffP,
                         ::testing::ValuesIn(all_app_names()));

// ---- 3. commuting passes may run in any order -------------------------------

TEST(PassPermutation, ShuffledMiddlePassesPreserveSemantics) {
  constexpr int kItems = 48;
  constexpr double kTol = 1e-7;
  std::vector<std::string> middle = {"const-fold", "linear-extract",
                                     "linear-combine", "frequency"};
  std::mt19937 rng(20260805u);  // seeded: failures reproduce
  for (const char* app : {"FIR", "RateConvert", "FilterBank"}) {
    sched::Executor base_ex(compile_level(app, OptLevel::O0));
    const auto base = run_items(base_ex, kItems);
    for (int trial = 0; trial < 4; ++trial) {
      std::shuffle(middle.begin(), middle.end(), rng);
      std::string spec = "validate,analysis-gate";
      for (const auto& p : middle) spec += "," + p;
      SCOPED_TRACE(std::string(app) + " spec=" + spec);
      CompileOptions copts;
      copts.passes = spec;
      sched::CompiledProgram prog =
          compile(observable(apps::make_app(app)), copts);
      EXPECT_EQ(prog.pipeline, spec);
      sched::Executor ex(std::move(prog));
      const auto got = run_items(ex, kItems);
      for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_NEAR(base[i], got[i], kTol * std::max(1.0, std::fabs(base[i])))
            << "item " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sit::opt
