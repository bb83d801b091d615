// Tests for the parallelization machinery: fusion, fission, coarsening,
// selective fusion, the machine model, and the end-to-end strategies.
// Every transformation is checked for *semantic preservation* (identical
// output stream) in addition to its structural effect.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "linear/frequency.h"
#include "linear/linear_rep.h"
#include "machine/machine.h"
#include "opt/compile.h"
#include "parallel/strategies.h"
#include "parallel/transforms.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit::parallel {
namespace {

using namespace sit::ir::dsl;
using namespace sit::ir;

std::vector<double> run_graph(const NodeP& root, int items_out) {
  sched::Executor ex(ir::clone(root));
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<double> input;
  ex.set_input_generator([&input, &rng, &d](std::int64_t i) {
    while (static_cast<std::int64_t>(input.size()) <= i) input.push_back(d(rng));
    return input[static_cast<std::size_t>(i)];
  });
  std::vector<double> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < items_out && ++guard < 20000) {
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(static_cast<std::size_t>(items_out));
  return out;
}

void expect_same_stream(const NodeP& a, const NodeP& b, int items,
                        double tol = 1e-9) {
  const auto xa = run_graph(a, items);
  const auto xb = run_graph(b, items);
  for (std::size_t i = 0; i < xa.size(); ++i) {
    ASSERT_NEAR(xa[i], xb[i], tol) << "diverges at " << i;
  }
}

NodeP scaler(const std::string& name, double f) {
  return filter(name).rates(1, 1, 1).work(seq({push_(pop_() * c(f))})).node();
}

NodeP avg3(const std::string& name) {
  return filter(name)
      .rates(3, 1, 1)
      .work(seq({push_((peek_(0) + peek_(1) + peek_(2)) / c(3.0)), discard(1)}))
      .node();
}

NodeP accumulator(const std::string& name) {
  return filter(name)
      .rates(1, 1, 1)
      .scalar("s", ir::Value(0.0))
      .work(seq({let("s", v("s") + pop_()), push_(v("s"))}))
      .node();
}

NodeP up2(const std::string& name) {
  return filter(name).rates(1, 1, 2).work(seq({let("x", pop_()), push_(v("x")), push_(v("x") * c(0.5))})).node();
}

NodeP down2(const std::string& name) {
  return filter(name).rates(2, 2, 1).work(seq({push_(pop_() + pop_())})).node();
}

// ---- statefulness classification ----------------------------------------------

TEST(Classify, StatefulAndPeekingDetection) {
  EXPECT_FALSE(leaf_stateful(*scaler("s", 2.0)));
  EXPECT_TRUE(leaf_stateful(*accumulator("a")));
  EXPECT_FALSE(subtree_peeks(scaler("s", 2.0)));
  EXPECT_TRUE(subtree_peeks(avg3("m")));
  auto pipe = make_pipeline("p", {scaler("x", 1.0), accumulator("acc")});
  EXPECT_TRUE(subtree_stateful(pipe));
}

// ---- fusion -------------------------------------------------------------------

TEST(Fuse, PipelineOfStatelessFilters) {
  auto orig = make_pipeline("p", {scaler("a", 2.0), up2("b"), down2("c")});
  auto fused = fuse_subtree(orig, "fusedP");
  ASSERT_EQ(fused->kind, Node::Kind::Native);
  EXPECT_FALSE(fused->native.stateful);
  EXPECT_EQ(fused->native.pop, 1);
  EXPECT_EQ(fused->native.push, 1);
  expect_same_stream(orig, fused, 30);
}

TEST(Fuse, PeekingPipelineBecomesStatefulButCorrect) {
  auto orig = make_pipeline("p", {scaler("a", 2.0), avg3("m"), scaler("b", 0.5)});
  auto fused = fuse_subtree(orig, "fusedPeek");
  EXPECT_TRUE(fused->native.stateful);
  EXPECT_GT(fused->native.peek, fused->native.pop);
  expect_same_stream(orig, fused, 25);
}

TEST(Fuse, StatefulPipelinePreservesRunningState) {
  auto orig = make_pipeline("p", {scaler("a", 1.0), accumulator("acc")});
  auto fused = fuse_subtree(orig, "fusedAcc");
  EXPECT_TRUE(fused->native.stateful);
  expect_same_stream(orig, fused, 40);
}

TEST(Fuse, SplitJoinFusesToOneActor) {
  auto sj = make_splitjoin("sj", duplicate_split(), roundrobin_join({1, 1}),
                           {scaler("l", 3.0), scaler("r", -1.0)});
  auto fused = fuse_subtree(sj, "fusedSJ");
  EXPECT_EQ(fused->native.pop, 1);
  EXPECT_EQ(fused->native.push, 2);
  expect_same_stream(sj, fused, 30);
}

// Fusing a segment again inlines the segment's own body: the result runs
// one flat body.  Here the absorbed segment {u, d} fires in whole
// iterations of 2 items, so the declared init window (2 extra items for
// avg2) is larger than the flat body needs (1); the surplus just stays
// buffered and the stream is unchanged.
TEST(Fuse, FusingASegmentAgainRunsOneFlatBody) {
  const auto up3 = [] {
    return filter("u").rates(1, 1, 3)
        .work(seq({let("x", pop_()), push_(v("x")), push_(v("x") * c(0.5)),
                   push_(v("x") * c(0.25))}))
        .node();
  };
  const auto avg2 = [] {
    return filter("a2").rates(2, 1, 1)
        .work(seq({push_((peek_(0) + peek_(1)) * c(0.5)), discard(1)}))
        .node();
  };
  const auto orig = make_pipeline("p", {up3(), down2("d"), avg2()});
  const auto inner = fuse_subtree(make_pipeline("ud", {up3(), down2("d")}), "in");
  const auto outer = fuse_subtree(make_pipeline("p", {inner, avg2()}), "out");
  ASSERT_NE(outer->native.body, nullptr);
  ir::visit(outer->native.body, [](const NodeP& n) {
    EXPECT_FALSE(n->kind == Node::Kind::Native && n->native.body) << n->name;
  });
  EXPECT_EQ(outer->native.pop, 2);
  EXPECT_EQ(outer->native.peek, 4);
  for (const sched::Engine e : {sched::Engine::Tree, sched::Engine::Vm}) {
    sched::ExecOptions o;
    o.engine = e;
    o.typed = sched::TypedMode::On;
    sched::Executor want(ir::clone(orig), o);
    sched::Executor got(make_pipeline("w", {outer}), o);
    std::vector<double> in;
    for (int i = 0; i < 64; ++i) in.push_back(0.3 * i - 4.0);
    want.feed_input(in);
    got.feed_input(in);
    const auto a = want.run_steady(20);
    const auto b = got.run_steady(20);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i])) << i;
    }
    EXPECT_EQ(got.metrics_snapshot().actors[0].segment,
              e == sched::Engine::Tree ? "tree" : "fused");
  }
}

// A segment whose body cannot run as one fused trace (DtoA's tight feedback
// loop has no single-appearance schedule) runs per actor on the typed VM,
// says why in its status, and still computes the same stream.
TEST(Fuse, RefusedSegmentRunsPerActorOnTheTypedVm) {
  const NodeP dtoa = apps::make_app("DtoA");
  const NodeP obs = make_pipeline(
      "obs", {dtoa->children.begin(), dtoa->children.end() - 1});
  const NodeP seg = make_pipeline("w", {fuse_subtree(obs, "dtoa_sf")});
  sched::ExecOptions o;
  o.engine = sched::Engine::Vm;
  o.typed = sched::TypedMode::On;
  sched::Executor want(ir::clone(obs), o);
  sched::Executor got(seg, o);
  const auto a = want.run_steady(8);
  const auto b = got.run_steady(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i])) << i;
  }
  const std::string status = got.metrics_snapshot().actors[0].segment;
  EXPECT_EQ(status.rfind("typed-vm:not-single-appearance:", 0), 0u) << status;
}

TEST(Fuse, RateChangingPipeline) {
  auto orig = make_pipeline("p", {up2("u"), scaler("m", 2.0), down2("d")});
  auto fused = fuse_subtree(orig, "fusedRate");
  expect_same_stream(orig, fused, 30);
}

// ---- fission ------------------------------------------------------------------

TEST(Fiss, NonPeekingRoundRobinFission) {
  auto leaf = scaler("w", 1.5);
  auto fissed = fiss(leaf, 4);
  ASSERT_EQ(fissed->kind, Node::Kind::SplitJoin);
  EXPECT_EQ(fissed->children.size(), 4u);
  expect_same_stream(leaf, fissed, 40);
}

TEST(Fiss, RateChangingFission) {
  auto leaf = down2("d");
  auto fissed = fiss(leaf, 3);
  expect_same_stream(leaf, fissed, 30);
}

TEST(Fiss, PeekingFissionUsesDuplication) {
  auto leaf = avg3("m");
  auto fissed = fiss(leaf, 4);
  ASSERT_EQ(fissed->kind, Node::Kind::SplitJoin);
  EXPECT_EQ(fissed->split.kind, SJKind::Duplicate);
  expect_same_stream(leaf, fissed, 48);
}

// A stateless 5-tap FIR whose coefficients come from its init function.
NodeP fir5(const std::string& name) {
  return filter(name)
      .rates(5, 1, 1)
      .array("h", 5)
      .init(for_("i", 0, 5,
                 set_at("h", v("i"), c(0.125) * to_float(v("i")) - c(0.25))))
      .work(seq({let("acc", c(0.0)),
                 for_("i", 0, 5,
                      let("acc", v("acc") + peek_(v("i")) * at("h", v("i")))),
                 push_(v("acc")), discard(1)}))
      .node();
}

// One run of `steady` steady states over a deterministic input: the
// program output and every actor's OpCounts.
struct Observed {
  std::vector<double> out;
  std::vector<runtime::OpCounts> ops;
};

template <class Exec>
Observed observe(Exec& ex, int steady) {
  ex.set_input_generator([](std::int64_t i) {
    return std::sin(0.37 * static_cast<double>(i)) +
           0.01 * static_cast<double>(i % 7);
  });
  Observed o;
  o.out = ex.run_steady(steady);
  o.ops = ex.actor_ops();
  return o;
}

void expect_bit_equal(const Observed& want, const Observed& got) {
  ASSERT_EQ(want.out.size(), got.out.size());
  for (std::size_t i = 0; i < want.out.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want.out[i]),
              std::bit_cast<std::uint64_t>(got.out[i]))
        << "item " << i << ": " << want.out[i] << " vs " << got.out[i];
  }
  ASSERT_EQ(want.ops.size(), got.ops.size());
  for (std::size_t a = 0; a < want.ops.size(); ++a) {
    const runtime::OpCounts& w = want.ops[a];
    const runtime::OpCounts& g = got.ops[a];
    EXPECT_EQ(w.int_ops, g.int_ops) << "actor " << a;
    EXPECT_EQ(w.flops, g.flops) << "actor " << a;
    EXPECT_EQ(w.divs, g.divs) << "actor " << a;
    EXPECT_EQ(w.trans, g.trans) << "actor " << a;
    EXPECT_EQ(w.mem, g.mem) << "actor " << a;
    EXPECT_EQ(w.channel, g.channel) << "actor " << a;
  }
}

// Peeking-fission replicas of an AST filter are plain filters: the executor
// that owns them compiles each by its own ExecOptions, like every other
// filter.  Every engine and the threaded runtime agree bit for bit on the
// outputs and the per-actor OpCounts, and the replicas run on the tree
// exactly when the executor asks for the tree.
TEST(Fiss, PeekingReplicasFollowTheExecutorEngine) {
  const auto leaf = fir5("fir5");
  ASSERT_FALSE(leaf_stateful(*leaf));
  const Observed unfissed = [&] {
    sched::Executor ex(ir::clone(leaf));
    return observe(ex, 60);
  }();
  for (const int k : {2, 3}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const auto fissed = fiss(leaf, k);
    ASSERT_EQ(fissed->split.kind, SJKind::Duplicate);
    std::vector<Observed> runs;
    for (const auto engine :
         {sched::Engine::Tree, sched::Engine::Vm, sched::Engine::Fused}) {
      sched::ExecOptions eo;
      eo.engine = engine;
      eo.typed = sched::TypedMode::On;
      sched::Executor ex(ir::clone(fissed), eo);
      runs.push_back(observe(ex, 60 / k));
      int replicas = 0;
      for (std::size_t a = 0; a < ex.graph().actors.size(); ++a) {
        if (ex.graph().actors[a].name.find("_rep") == std::string::npos) continue;
        ++replicas;
        if (engine == sched::Engine::Tree) {
          EXPECT_FALSE(ex.actor_uses_typed(static_cast<int>(a)));
        }
        if (engine == sched::Engine::Vm) {
          EXPECT_TRUE(ex.actor_uses_typed(static_cast<int>(a)))
              << ex.typed_refusal(static_cast<int>(a));
        }
      }
      EXPECT_EQ(replicas, k);
    }
    sched::ExecOptions to;
    to.threads = 4;
    sched::ThreadedExecutor tex(ir::clone(fissed), to);
    runs.push_back(observe(tex, 60 / k));
    for (const Observed& r : runs) {
      ASSERT_NO_FATAL_FAILURE(expect_bit_equal(runs[0], r));
      ASSERT_EQ(r.out, unfissed.out);
    }
  }
}

// A native peeking leaf (a frequency-translated FIR) still fisses through a
// shifted tape over its own state and work, bit-equal to the unfissed node.
TEST(Fiss, NativePeekingReplicasMatchTheLeaf) {
  linear::LinearRep r;
  r.peek = 9;
  r.pop = 1;
  r.push = 1;
  r.A = linear::Matrix(1, 9);
  r.b.assign(1, 0.0);
  for (int i = 0; i < r.peek; ++i) {
    r.A.at(0, static_cast<std::size_t>(i)) = 0.1 * (i + 1) - 0.4;
  }
  const auto leaf = linear::make_frequency_filter(r, "fir_freq", 16);
  ASSERT_EQ(leaf->kind, Node::Kind::Native);
  ASSERT_TRUE(leaf->native.does_peek());
  ASSERT_FALSE(leaf_stateful(*leaf));
  const int pop = leaf->native.pop;
  const Observed want = [&] {
    sched::Executor ex(ir::clone(leaf));
    return observe(ex, 6);
  }();
  for (const int k : {2, 3}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const auto fissed = fiss(leaf, k);
    ASSERT_EQ(fissed->split.kind, SJKind::Duplicate);
    ASSERT_EQ(fissed->children[0]->kind, Node::Kind::Native);
    EXPECT_EQ(fissed->children[0]->native.pop, k * pop);
    sched::Executor ex(ir::clone(fissed));
    const Observed got = observe(ex, 6);
    ASSERT_GE(got.out.size(), want.out.size());
    for (std::size_t i = 0; i < want.out.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want.out[i]),
                std::bit_cast<std::uint64_t>(got.out[i]))
          << "item " << i << ": " << want.out[i] << " vs " << got.out[i];
    }
  }
}

TEST(Fiss, StatefulRejected) {
  EXPECT_THROW(fiss(accumulator("a"), 2), std::invalid_argument);
}

TEST(Fiss, FusedStatelessSubtreeCanBeFissed) {
  // The paper's coarsen-then-fiss: fuse a stateless pipeline, then fiss the
  // fused filter.
  auto orig = make_pipeline("p", {scaler("a", 2.0), scaler("b", 0.25)});
  auto fused = fuse_subtree(orig, "coarse");
  ASSERT_FALSE(fused->native.stateful);
  auto fissed = fiss(fused, 4);
  expect_same_stream(orig, fissed, 40);
}

// ---- coarsening / selective fusion -----------------------------------------------

TEST(Coarsen, FusesStatelessRunsOnly) {
  auto g = make_pipeline("p", {scaler("a", 2.0), scaler("b", 3.0),
                               accumulator("acc"), scaler("c", 0.5),
                               scaler("d", 4.0)});
  auto cg = coarsen_stateless(g);
  // a+b fuse, acc survives, c+d fuse -> 3 leaves.
  EXPECT_EQ(count_filters(cg), 3);
  expect_same_stream(g, cg, 40);
}

TEST(Coarsen, PeekingFilterBlocksRun) {
  auto g = make_pipeline("p", {scaler("a", 2.0), avg3("m"), scaler("b", 0.5)});
  auto cg = coarsen_stateless(g);
  // The peeking filter cannot join a stateless fused region.
  EXPECT_EQ(count_filters(cg), 3);
  expect_same_stream(g, cg, 25);
}

TEST(Coarsen, StatelessSplitJoinCollapses) {
  auto g = make_pipeline(
      "p", {scaler("pre", 1.0),
            make_splitjoin("sj", duplicate_split(), roundrobin_join({1, 1}),
                           {scaler("l", 2.0), scaler("r", 3.0)}),
            down2("post")});
  auto cg = coarsen_stateless(g);
  EXPECT_EQ(count_filters(cg), 1);  // whole thing is stateless: one actor
  expect_same_stream(g, cg, 30);
}

TEST(SelectiveFusion, ReachesTargetAndPreservesStream) {
  std::vector<NodeP> stages;
  for (int i = 0; i < 8; ++i) {
    stages.push_back(scaler("s" + std::to_string(i), 1.0 + 0.1 * i));
  }
  stages.push_back(accumulator("acc"));
  auto g = make_pipeline("p", stages);
  auto sf = selective_fusion(g, 3);
  EXPECT_LE(count_filters(sf), 3);
  expect_same_stream(g, sf, 40);
}

// A built-in app with its final sink dropped, so its stream reaches the
// program output edge.
NodeP observable_app(const std::string& app) {
  const NodeP g = apps::make_app(app);
  if (g->kind != Node::Kind::Pipeline || g->children.size() < 2) return g;
  return make_pipeline(g->name + "_obs", {g->children.begin(),
                                          g->children.end() - 1});
}

// `g` under the -O2 preset plus coarsen for 4 workers: the graph the
// threaded runtime runs, with selective fusion's segments wrapped again by
// coarsening.
NodeP coarsened(const NodeP& g) {
  opt::CompileOptions copts;
  copts.passes =
      "validate,analysis-gate,const-fold,linear-combine,frequency,coarsen";
  copts.exec.threads = 4;
  return opt::compile(g, copts).graph;
}

TEST(DataParallelize, PreservesSemantics) {
  auto g = make_pipeline("p", {scaler("a", 2.0), scaler("b", 3.0),
                               accumulator("acc"), scaler("c", 0.5)});
  auto dp = data_parallelize(g, 4);
  expect_same_stream(g, dp, 60);
  // The apps whose segments used to nest (selective fusion inside coarsen):
  // flattened bodies must compute the same stream, bit for bit.
  for (const std::string app : {"BitonicSort", "FFT", "DES", "Serpent"}) {
    SCOPED_TRACE(app);
    const NodeP g = observable_app(app);
    const auto want = run_graph(g, 200);
    const auto got = run_graph(coarsened(g), 200);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
                std::bit_cast<std::uint64_t>(got[i]))
          << "diverges at " << i;
    }
  }
}

// No segment body contains a segment: fusing a segment again inlines its
// body, so no executor ever runs inside another.
TEST(Coarsen, SegmentsAreFlat) {
  int segments = 0;
  for (const auto& app : apps::all_apps()) {
    const NodeP g = coarsened(apps::make_app(app.name));
    ir::visit(g, [&](const NodeP& n) {
      if (n->kind != Node::Kind::Native || !n->native.body) return;
      ++segments;
      ir::visit(n->native.body, [&](const NodeP& b) {
        EXPECT_FALSE(b->kind == Node::Kind::Native && b->native.body)
            << app.name << ": segment " << n->name << " contains segment "
            << b->name;
      });
    });
  }
  EXPECT_GT(segments, 0);
}

// What a segment's body runs on follows the executor that owns it, never
// SIT_ENGINE: coarsened DCT is bit-equal under Tree / Vm / Fused at 1 and 4
// threads, its segments report the engine they ran, and those reports do
// not move when SIT_ENGINE says otherwise.
TEST(Coarsen, SegmentEngineFollowsExecutor) {
  const NodeP g = coarsened(observable_app("DCT"));
  struct Run {
    std::vector<double> out;
    std::vector<std::int64_t> firings;
    std::vector<std::string> status;  // per segment actor
  };
  const auto run = [&g](sched::Engine engine, int threads) {
    sched::ExecOptions o;
    o.engine = engine;
    o.threads = threads;
    o.typed = sched::TypedMode::On;
    sched::ThreadedExecutor ex(ir::clone(g), o);
    ex.set_input_generator([](std::int64_t i) {
      return static_cast<double>((i * 7919) % 255) - 127.0;
    });
    Run r;
    r.out = ex.run_steady(6);
    r.firings = ex.firings();
    for (const auto& a : ex.metrics_snapshot().actors) {
      if (!a.segment.empty()) r.status.push_back(a.segment);
    }
    return r;
  };
  const Run tree = run(sched::Engine::Tree, 1);
  ASSERT_FALSE(tree.status.empty());
  for (const auto& s : tree.status) EXPECT_EQ(s, "tree");
  ASSERT_FALSE(tree.out.empty());
  std::vector<Run> compiled;
  for (const sched::Engine e :
       {sched::Engine::Tree, sched::Engine::Vm, sched::Engine::Fused}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(static_cast<int>(e) * 10 + threads);
      const Run r = run(e, threads);
      ASSERT_EQ(r.out.size(), tree.out.size());
      for (std::size_t i = 0; i < r.out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(r.out[i]),
                  std::bit_cast<std::uint64_t>(tree.out[i]))
            << "diverges at " << i;
      }
      EXPECT_EQ(r.firings, tree.firings);
      if (e == sched::Engine::Tree) {
        EXPECT_EQ(r.status, tree.status);
      } else {
        compiled.push_back(r);
      }
    }
  }
  for (const auto& s : compiled.front().status) EXPECT_EQ(s, "fused");
  for (const auto& r : compiled) EXPECT_EQ(r.status, compiled.front().status);

  const char* old = std::getenv("SIT_ENGINE");
  const std::string saved = old != nullptr ? old : "";
  setenv("SIT_ENGINE", "tree", 1);
  const Run under_tree_env = run(sched::Engine::Vm, 4);
  unsetenv("SIT_ENGINE");
  const Run unset_env = run(sched::Engine::Vm, 4);
  if (old != nullptr) setenv("SIT_ENGINE", saved.c_str(), 1);
  EXPECT_EQ(under_tree_env.status, unset_env.status);
  EXPECT_EQ(unset_env.status, compiled.front().status);
}

TEST(FineGrained, PreservesSemantics) {
  auto g = make_pipeline("p", {scaler("a", 2.0), down2("d")});
  auto fg = fine_grained_parallelize(g, 4);
  EXPECT_GT(count_filters(fg), count_filters(g));
  expect_same_stream(g, fg, 40);
}

// ---- machine model ---------------------------------------------------------------

TEST(Machine, RouteIsXYAndHopCountsMatch) {
  machine::MachineConfig cfg;
  EXPECT_EQ(cfg.cores(), 16);
  EXPECT_EQ(cfg.hops(0, 15), 6);  // (0,0) -> (3,3)
  EXPECT_EQ(cfg.route(0, 15).size(), 6u);
  EXPECT_TRUE(cfg.route(5, 5).empty());
}

TEST(Machine, PipelinedModeIsBottleneckBound) {
  machine::MachineConfig cfg;
  std::vector<machine::PlacedActor> actors = {
      {"a", 0, 1000.0, 500.0}, {"b", 1, 400.0, 100.0}, {"c", 2, 200.0, 0.0}};
  std::vector<machine::PlacedEdge> edges = {{0, 1, 10.0, false},
                                            {1, 2, 10.0, false}};
  const auto r = machine::simulate(cfg, actors, edges, machine::ExecMode::Pipelined);
  // Core 0 = 1000 compute + 10 send.
  EXPECT_DOUBLE_EQ(r.cycles_per_steady, 1010.0);
  EXPECT_EQ(r.bottleneck_core, 0);
  EXPECT_GT(r.mflops, 0.0);
}

TEST(Machine, DataFlowModeSerializesDependences) {
  machine::MachineConfig cfg;
  cfg.hop_latency = 0.0;
  cfg.send_cost = cfg.recv_cost = 0.0;
  std::vector<machine::PlacedActor> actors = {
      {"a", 0, 100.0, 0.0}, {"b", 1, 100.0, 0.0}};
  std::vector<machine::PlacedEdge> edges = {{0, 1, 1.0, false}};
  const auto pipe = machine::simulate(cfg, actors, edges, machine::ExecMode::Pipelined);
  const auto df = machine::simulate(cfg, actors, edges, machine::ExecMode::DataFlow);
  EXPECT_DOUBLE_EQ(pipe.cycles_per_steady, 100.0);  // overlapped
  EXPECT_DOUBLE_EQ(df.cycles_per_steady, 200.0);    // serialized chain
}

TEST(Machine, ParallelBranchesOverlapInDataFlow) {
  machine::MachineConfig cfg;
  cfg.hop_latency = 0.0;
  cfg.send_cost = cfg.recv_cost = 0.0;
  // Diamond: src -> {x, y} -> sink, x and y on different cores.
  std::vector<machine::PlacedActor> actors = {{"src", 0, 10.0, 0.0},
                                              {"x", 1, 100.0, 0.0},
                                              {"y", 2, 100.0, 0.0},
                                              {"snk", 3, 10.0, 0.0}};
  std::vector<machine::PlacedEdge> edges = {
      {0, 1, 1, false}, {0, 2, 1, false}, {1, 3, 1, false}, {2, 3, 1, false}};
  const auto r = machine::simulate(cfg, actors, edges, machine::ExecMode::DataFlow);
  EXPECT_DOUBLE_EQ(r.cycles_per_steady, 120.0);
}

TEST(Machine, LinkContentionBoundsPipelinedThroughput) {
  machine::MachineConfig cfg;
  cfg.link_bw = 0.5;  // 2 cycles per item per link
  std::vector<machine::PlacedActor> actors = {{"a", 0, 10.0, 0.0},
                                              {"b", 3, 10.0, 0.0}};
  std::vector<machine::PlacedEdge> edges = {{0, 1, 1000.0, false}};
  const auto r = machine::simulate(cfg, actors, edges, machine::ExecMode::Pipelined);
  EXPECT_GE(r.cycles_per_steady, 2000.0);
}

// ---- strategies -------------------------------------------------------------------

NodeP heavy(const std::string& name, int ops) {
  // A stateless filter doing `ops` multiply-adds per item.
  std::vector<ir::StmtP> body{let("s", peek_(0))};
  for (int i = 0; i < ops; ++i) {
    body.push_back(let("s", v("s") * c(1.0001) + c(0.5)));
  }
  body.push_back(push_(v("s")));
  body.push_back(discard(1));
  return filter(name).rates(1, 1, 1).work(seq(body)).node();
}

NodeP heavy_stateful(const std::string& name, int ops) {
  std::vector<ir::StmtP> body{let("s", v("st") + peek_(0))};
  for (int i = 0; i < ops; ++i) {
    body.push_back(let("s", v("s") * c(0.999) + c(0.5)));
  }
  body.push_back(let("st", v("s") * c(0.001)));
  body.push_back(push_(v("s")));
  body.push_back(discard(1));
  return filter(name).rates(1, 1, 1).scalar("st", ir::Value(0.0)).work(seq(body)).node();
}

TEST(Strategies, DataParallelismScalesStatelessPipeline) {
  auto app = make_pipeline("app", {heavy("h1", 50), heavy("h2", 50)});
  machine::MachineConfig cfg;
  const auto task = run_strategy(app, Strategy::TaskParallel, cfg);
  const auto data = run_strategy(app, Strategy::TaskData, cfg);
  // Task parallelism cannot split a linear pipeline; data parallelism can.
  EXPECT_LT(task.speedup_vs_single, 2.0);
  EXPECT_GT(data.speedup_vs_single, 6.0);
}

TEST(Strategies, SoftwarePipeliningBeatsTaskOnPipelines) {
  auto app = make_pipeline(
      "app", {heavy_stateful("s1", 40), heavy_stateful("s2", 40),
              heavy_stateful("s3", 40), heavy_stateful("s4", 40)});
  machine::MachineConfig cfg;
  const auto task = run_strategy(app, Strategy::TaskParallel, cfg);
  const auto swp = run_strategy(app, Strategy::TaskSwp, cfg);
  // A stateful pipeline has no task or data parallelism at all; software
  // pipelining still overlaps the four stages.
  EXPECT_LT(task.speedup_vs_single, 1.5);
  EXPECT_GT(swp.speedup_vs_single, 2.5);
}

TEST(Strategies, TaskParallelSeesSplitJoinWidth) {
  std::vector<NodeP> branches;
  for (int i = 0; i < 8; ++i) branches.push_back(heavy("b" + std::to_string(i), 60));
  auto app = make_splitjoin("wide", roundrobin_split(std::vector<int>(8, 1)),
                            roundrobin_join(std::vector<int>(8, 1)), branches);
  machine::MachineConfig cfg;
  const auto task = run_strategy(app, Strategy::TaskParallel, cfg);
  EXPECT_GT(task.speedup_vs_single, 4.0);
}

TEST(Strategies, SpaceMultiplexFusesToCoreCount) {
  std::vector<NodeP> stages;
  for (int i = 0; i < 24; ++i) stages.push_back(heavy("f" + std::to_string(i), 10 + i));
  auto app = make_pipeline("deep", stages);
  machine::MachineConfig cfg;
  const auto space = run_strategy(app, Strategy::SpaceMultiplex, cfg);
  EXPECT_LE(count_filters(space.transformed), cfg.cores());
  EXPECT_GT(space.speedup_vs_single, 2.0);
}

TEST(Strategies, CombinedBeatsOrMatchesDataAlone) {
  auto app = make_pipeline("app", {heavy("h1", 30), heavy_stateful("s", 30),
                                   heavy("h2", 30)});
  machine::MachineConfig cfg;
  const auto data = run_strategy(app, Strategy::TaskData, cfg);
  const auto comb = run_strategy(app, Strategy::TaskDataSwp, cfg);
  EXPECT_GE(comb.speedup_vs_single, data.speedup_vs_single * 0.95);
}

TEST(Strategies, TransformedGraphsStillComputeTheSameStream) {
  auto app = make_pipeline("app", {heavy("h1", 8), heavy_stateful("s", 8),
                                   heavy("h2", 8)});
  machine::MachineConfig cfg;
  for (Strategy s : {Strategy::TaskData, Strategy::TaskSwp, Strategy::TaskDataSwp,
                     Strategy::SpaceMultiplex, Strategy::FineGrainedData}) {
    const auto r = run_strategy(app, s, cfg);
    expect_same_stream(app, r.transformed, 30);
  }
}

}  // namespace
}  // namespace sit::parallel
