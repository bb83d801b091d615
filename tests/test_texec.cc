// Differential tests: the threaded runtime must be observationally identical
// to the sequential executor.  Every built-in app and a population of
// randomized structured graphs run under ThreadedExecutor at 1, 2, and 4
// threads; program output, firing tallies, per-actor OpCounts, cumulative
// channel counters, and final filter state are held bit-equal.  Also covers
// the SPSC ring itself (wraparound, counter carry-over, and a concurrent
// coprime-rate stress) and the fallback rules for graphs the threaded
// runtime refuses.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "apps/common.h"
#include "apps/radio.h"
#include "ir/dsl.h"
#include "opt/compile.h"
#include "parallel/transforms.h"
#include "runtime/spsc.h"
#include "sched/envopts.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::Value;
using runtime::FilterState;
using runtime::OpCounts;
using runtime::SpscRing;

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_bits(a[i], b[i]))
        << what << " item " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_same_value(const Value& a, const Value& b, const std::string& what) {
  ASSERT_EQ(a.is_int(), b.is_int()) << what << " tag mismatch";
  if (a.is_int()) {
    ASSERT_EQ(a.as_int(), b.as_int()) << what;
  } else {
    ASSERT_TRUE(same_bits(a.as_double(), b.as_double()))
        << what << ": " << a.as_double() << " vs " << b.as_double();
  }
}

void expect_same_state(const FilterState& a, const FilterState& b,
                       const std::string& who) {
  ASSERT_EQ(a.scalars.size(), b.scalars.size()) << who;
  for (const auto& [name, va] : a.scalars) {
    auto it = b.scalars.find(name);
    ASSERT_NE(it, b.scalars.end()) << who << " scalar " << name;
    expect_same_value(va, it->second, who + "." + name);
  }
  ASSERT_EQ(a.arrays.size(), b.arrays.size()) << who;
  for (const auto& [name, va] : a.arrays) {
    auto it = b.arrays.find(name);
    ASSERT_NE(it, b.arrays.end()) << who << " array " << name;
    ASSERT_EQ(va.size(), it->second.size()) << who << "." << name;
    for (std::size_t i = 0; i < va.size(); ++i) {
      expect_same_value(va[i], it->second[i],
                        who + "." + name + "[" + std::to_string(i) + "]");
    }
  }
}

void expect_same_counts(const OpCounts& a, const OpCounts& b,
                        const std::string& who) {
  EXPECT_EQ(a.int_ops, b.int_ops) << who << " int_ops";
  EXPECT_EQ(a.flops, b.flops) << who << " flops";
  EXPECT_EQ(a.divs, b.divs) << who << " divs";
  EXPECT_EQ(a.trans, b.trans) << who << " trans";
  EXPECT_EQ(a.mem, b.mem) << who << " mem";
  EXPECT_EQ(a.channel, b.channel) << who << " channel";
}

// Run the same graph under the sequential Executor and a ThreadedExecutor
// (two run_steady calls, so the threaded path is re-entered after the first
// calibration + partition) and hold every observable equal.  `batch` is the
// iteration-batching factor: 0 defers to SIT_BATCH, -1 forces the auto
// heuristic, >= 1 is explicit.
void expect_matches(const std::string& what,
                    const std::function<ir::NodeP()>& make, int threads,
                    const std::function<double(std::int64_t)>& gen = {},
                    int batch = 0) {
  SCOPED_TRACE(what + " @" + std::to_string(threads) + " threads batch=" +
               std::to_string(batch));
  sched::Executor seq(make(), {});
  sched::ExecOptions topt;
  topt.threads = threads;
  topt.batch = batch;
  sched::ThreadedExecutor tex(make(), topt);
  if (gen) {
    seq.set_input_generator(gen);
    tex.set_input_generator(gen);
  }

  expect_same_doubles(seq.run_steady(3), tex.run_steady(3), what + " output#1");
  expect_same_doubles(seq.run_steady(2), tex.run_steady(2), what + " output#2");

  const auto& g = seq.graph();
  ASSERT_EQ(g.actors.size(), tex.graph().actors.size()) << what;
  EXPECT_EQ(seq.firings(), tex.firings()) << what;
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    const int ai = static_cast<int>(a);
    expect_same_counts(seq.actor_ops()[a], tex.actor_ops()[a],
                       what + "/" + g.actors[a].name);
    if (g.actors[a].kind == runtime::FlatActor::Kind::Filter) {
      expect_same_state(seq.filter_state(ai), tex.filter_state(ai),
                        what + "/" + g.actors[a].name);
    }
  }
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const int ei = static_cast<int>(e);
    EXPECT_EQ(seq.channel(ei).total_pushed(), tex.edge_pushed(ei))
        << what << " edge " << e << " pushed";
    EXPECT_EQ(seq.channel(ei).total_popped(), tex.edge_popped(ei))
        << what << " edge " << e << " popped";
  }
}

// ---- whole-application differential -----------------------------------------

TEST(TexecDifferential, AllAppsAllThreadCounts) {
  for (const auto& info : apps::all_apps()) {
    for (int threads : {1, 2, 4}) {
      expect_matches(info.name, info.make, threads);
    }
  }
}

// The coarse-grained data-parallel apps, after the fission transform the
// bench applies, must actually run threaded (not fall back) and still match.
TEST(TexecDifferential, PreparedAppsRunThreaded) {
  for (const std::string name : {"FIR", "FilterBank", "FMRadio"}) {
    SCOPED_TRACE(name);
    const auto make = [&] {
      return parallel::coarsen_for_threads(apps::make_app(name), 4);
    };
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(3);
    EXPECT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_GT(tex.report().ring_edges, 0);
    EXPECT_GT(tex.report().threads, 1);
    expect_matches(name + "/prepared", make, 4);
  }
}

// ---- randomized structured graphs -------------------------------------------

// Random pipelines of sources, FIRs (peeking), rate changers, and
// split-joins, ending at the external output so the item stream itself is
// compared.  Fixed seeds keep failures reproducible.
ir::NodeP random_graph(std::uint32_t seed) {
  std::mt19937 g(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(g);
  };
  int uniq = 0;
  auto nm = [&](const char* base) {
    return std::string(base) + "_" + std::to_string(seed) + "_" +
           std::to_string(uniq++);
  };

  // rate_safe stages keep a 1:1 signature so split-join branches stay
  // balanced; pipelines may also change rates.
  std::function<ir::NodeP(bool)> leaf_stage = [&](bool rate_safe) -> ir::NodeP {
    switch (pick(0, rate_safe ? 1 : 3)) {
      case 0:
        return apps::gain(nm("g"), 0.5 + 0.25 * pick(0, 4));
      case 1:
        return apps::lowpass_fir(nm("fir"), pick(3, 12), 0.3);
      case 2:
        return apps::downsample(nm("dec"), pick(2, 3));
      default:
        return apps::upsample(nm("up"), pick(2, 3));
    }
  };

  std::vector<ir::NodeP> stages;
  stages.push_back(apps::rand_source(nm("src"), pick(1, 2)));
  const int n_stages = pick(2, 4);
  for (int s = 0; s < n_stages; ++s) {
    if (pick(0, 3) == 0) {
      // A split-join of small per-branch pipelines.
      const int branches = pick(2, 3);
      std::vector<ir::NodeP> kids;
      for (int b = 0; b < branches; ++b) {
        std::vector<ir::NodeP> inner;
        const int depth = pick(1, 2);
        for (int d = 0; d < depth; ++d) inner.push_back(leaf_stage(true));
        kids.push_back(ir::make_pipeline(nm("branch"), inner));
      }
      ir::Splitter sp;
      ir::Joiner jn;
      jn.weights.assign(static_cast<std::size_t>(branches), 1);
      if (pick(0, 1) == 0) {
        sp.kind = ir::SJKind::Duplicate;
      } else {
        sp.kind = ir::SJKind::RoundRobin;
        sp.weights.assign(static_cast<std::size_t>(branches), 1);
      }
      stages.push_back(ir::make_splitjoin(nm("sj"), sp, jn, kids));
    } else {
      stages.push_back(leaf_stage(false));
    }
  }
  // No sink: the tail pushes to the external output, which the differential
  // harness compares item by item.
  return ir::make_pipeline(nm("rand"), stages);
}

TEST(TexecDifferential, RandomizedGraphs) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    for (int threads : {2, 4}) {
      expect_matches("rand" + std::to_string(seed),
                     [&] { return random_graph(seed); }, threads);
    }
  }
}

// ---- external input ---------------------------------------------------------

TEST(TexecDifferential, ExternalInputViaGenerator) {
  const auto make = [] {
    return ir::make_pipeline(
        "open", {apps::gain("pre", 2.0), apps::lowpass_fir("f", 16, 0.25),
                 apps::downsample("dec", 2)});
  };
  const auto gen = [](std::int64_t i) {
    return std::sin(0.01 * static_cast<double>(i));
  };
  for (int threads : {2, 4}) expect_matches("open-graph", make, threads, gen);
}

TEST(TexecDifferential, ExternalInputViaFeed) {
  const auto make = [] {
    return ir::make_pipeline("fed", {apps::gain("pre", 0.5),
                                     apps::lowpass_fir("f", 8, 0.25)});
  };
  sched::Executor seq(make(), {});
  sched::ExecOptions topt;
  topt.threads = 4;
  sched::ThreadedExecutor tex(make(), topt);
  const auto& s = seq.schedule();
  const std::int64_t need = s.input_for_init + 6 * s.input_per_steady;
  std::vector<double> items;
  items.reserve(static_cast<std::size_t>(need));
  for (std::int64_t i = 0; i < need; ++i) {
    items.push_back(std::cos(0.02 * static_cast<double>(i)));
  }
  seq.feed_input(items);
  tex.feed_input(items);
  expect_same_doubles(seq.run_steady(6), tex.run_steady(6), "fed output");
  EXPECT_EQ(seq.firings(), tex.firings());
}

// ---- selection & fallback rules ---------------------------------------------

TEST(TexecSelection, EnvVariableResolvesThreads) {
  ASSERT_EQ(setenv("SIT_THREADS", "3", 1), 0);
  EXPECT_EQ(sched::resolve_threads(0), 3);
  sched::ThreadedExecutor tex(apps::make_filter_bank(), {});
  unsetenv("SIT_THREADS");
  tex.run_steady(2);
  EXPECT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  EXPECT_LE(tex.report().threads, 3);
  EXPECT_EQ(sched::resolve_threads(0), 1);  // default without the env var
  EXPECT_EQ(sched::resolve_threads(8), 8);  // explicit option wins
}

TEST(TexecFallback, OneThreadStaysSequential) {
  sched::ExecOptions topt;
  topt.threads = 1;
  sched::ThreadedExecutor tex(apps::make_filter_bank(), topt);
  EXPECT_FALSE(tex.report().threaded);
  EXPECT_EQ(tex.report().threads, 1);
}

TEST(TexecFallback, TeleportGraphFallsBack) {
  sched::ExecOptions topt;
  topt.threads = 4;
  sched::ThreadedExecutor tex(apps::make_freq_hop_radio(16).graph, topt);
  EXPECT_FALSE(tex.report().threaded);
  EXPECT_NE(tex.report().fallback_reason.find("teleport"), std::string::npos)
      << tex.report().fallback_reason;
  // And the fallback still executes correctly.
  expect_matches("freqhop", [] { return apps::make_freq_hop_radio(16).graph; },
                 4);
}

TEST(TexecFallback, MessageSinkFallsBack) {
  sched::ExecOptions topt;
  topt.threads = 4;
  topt.message_sink = [](const runtime::SentMessage&) {};
  sched::ThreadedExecutor tex(apps::make_filter_bank(), topt);
  EXPECT_FALSE(tex.report().threaded);
  EXPECT_NE(tex.report().fallback_reason.find("sink"), std::string::npos);
}

TEST(TexecReport, PartitionCoversEveryActor) {
  sched::ExecOptions topt;
  topt.threads = 4;
  sched::ThreadedExecutor tex(
      parallel::coarsen_for_threads(apps::make_filter_bank(), 4), topt);
  tex.run_steady(2);
  const auto& rep = tex.report();
  ASSERT_TRUE(rep.threaded);
  ASSERT_EQ(rep.owner.size(), tex.graph().actors.size());
  for (int o : rep.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, rep.threads);
  }
  EXPECT_GT(rep.predicted_speedup, 0.0);
}

// ---- metrics snapshot -------------------------------------------------------

// The threaded snapshot is the owned Executor's snapshot plus threaded
// overlays, so its per-actor typed rows, firings and op tallies, its
// per-edge content tags and counters, and the typed totals must equal a
// sequential Executor's over the same artifact and steady states.
TEST(TexecSnapshot, RowsMatchSequentialOnAllAppsAtO2) {
  int threaded = 0;
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O2;
    copts.exec.threads = 4;
    const sched::CompiledProgram prog = opt::compile(info.make(), copts);
    sched::Executor seq(prog, {});
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(prog, topt);
    if (seq.graph().input_edge >= 0) {
      const auto gen = [](std::int64_t i) {
        return static_cast<double>((i % 32) - 16) / 16.0;
      };
      seq.set_input_generator(gen);
      tex.set_input_generator(gen);
    }
    seq.run_steady(5);
    tex.run_steady(5);
    threaded += tex.report().threaded ? 1 : 0;

    const obs::MetricsSnapshot ms = seq.metrics_snapshot();
    const obs::MetricsSnapshot mt = tex.metrics_snapshot();
    EXPECT_EQ(ms.typed_actors, mt.typed_actors);
    EXPECT_EQ(ms.typed_regs, mt.typed_regs);
    EXPECT_EQ(ms.typed_channels, mt.typed_channels);
    ASSERT_EQ(ms.actors.size(), mt.actors.size());
    for (std::size_t i = 0; i < ms.actors.size(); ++i) {
      const obs::ActorSnapshot& a = ms.actors[i];
      const obs::ActorSnapshot& b = mt.actors[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.typed_status, b.typed_status) << a.name;
      EXPECT_EQ(a.typed_regs, b.typed_regs) << a.name;
      EXPECT_EQ(a.firings, b.firings) << a.name;
      expect_same_counts(a.ops, b.ops, a.name);
    }
    ASSERT_EQ(ms.edges.size(), mt.edges.size());
    for (std::size_t e = 0; e < ms.edges.size(); ++e) {
      const obs::EdgeSnapshot& a = ms.edges[e];
      const obs::EdgeSnapshot& b = mt.edges[e];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.content, b.content) << a.name;
      EXPECT_EQ(a.pushed, b.pushed) << a.name;
      EXPECT_EQ(a.popped, b.popped) << a.name;
    }
  }
  EXPECT_GT(threaded, 0);
}

// Workers fire per actor, so a threaded run that asks for the fused engine
// must never build the whole-program trace (set-up time and memory).
TEST(TexecSnapshot, ThreadsNeverBuildFusedTrace) {
  sched::ExecOptions topt;
  topt.threads = 4;
  topt.engine = sched::Engine::Fused;
  sched::ThreadedExecutor tex(
      parallel::coarsen_for_threads(apps::make_filter_bank(), 4), topt);
  tex.run_steady(3);
  ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  EXPECT_EQ(tex.engine(), sched::Engine::Vm);
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  EXPECT_EQ(m.engine, "vm");
  EXPECT_EQ(m.fallback, "none");
  EXPECT_TRUE(m.fused_super.empty());
  EXPECT_EQ(m.fused_channels, -1);
}

// ---- iteration batching -----------------------------------------------------

// The differential harness across batch factors: unbatched (1), the auto
// heuristic (-1), and one explicit multi-iteration chunk whose size is
// coprime to the run_steady(3)/run_steady(2) call pattern so remainder
// chunks are exercised.
TEST(TexecBatch, DifferentialAcrossBatchFactors) {
  for (const std::string name : {"FIR", "FilterBank", "FMRadio"}) {
    const auto make = [&] {
      return parallel::coarsen_for_threads(apps::make_app(name), 4);
    };
    for (int batch : {1, -1, 3}) {
      expect_matches(name + "/batched", make, 4, {}, batch);
    }
  }
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    for (int batch : {1, -1, 3}) {
      expect_matches("rand" + std::to_string(seed) + "/batched",
                     [&] { return random_graph(seed); }, 4, {}, batch);
    }
  }
}

TEST(TexecBatch, ReportsResolvedBatchFactor) {
  const auto make = [] {
    return parallel::coarsen_for_threads(apps::make_filter_bank(), 4);
  };
  {
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = 1;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(4);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_EQ(tex.report().batch, 1);
  }
  {
    // An explicit request is honored up to the graph's admissible maximum.
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = 6;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(4);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_GE(tex.report().batch, 1);
    EXPECT_LE(tex.report().batch, 6);
  }
  {
    // Auto resolves to a concrete factor >= 1 at partition time.
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = -1;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(4);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_GE(tex.report().batch, 1);
  }
}

TEST(TexecBatch, EnvResolution) {
  ASSERT_EQ(setenv("SIT_BATCH", "auto", 1), 0);
  EXPECT_EQ(env_batch(), -1);
  EXPECT_EQ(sched::resolve_batch(0), -1);
  ASSERT_EQ(setenv("SIT_BATCH", "7", 1), 0);
  EXPECT_EQ(env_batch(), 7);
  EXPECT_EQ(sched::resolve_batch(0), 7);    // 0 defers to the environment
  EXPECT_EQ(sched::resolve_batch(2), 2);    // explicit option wins
  EXPECT_EQ(sched::resolve_batch(-5), -1);  // any negative requests auto
  ASSERT_EQ(setenv("SIT_BATCH", "0", 1), 0);
  EXPECT_EQ(env_batch(), 1);         // floor at 1
  ASSERT_EQ(unsetenv("SIT_BATCH"), 0);
  EXPECT_EQ(env_batch(), -1);        // default: auto
  EXPECT_EQ(sched::resolve_batch(3), 3);
}

// ---- the SPSC ring itself ---------------------------------------------------

TEST(SpscRing, FifoWraparoundAndCounters) {
  SpscRing r(8);  // rounds up to a power of two >= 8
  ASSERT_GE(r.capacity(), 8u);
  std::int64_t next_push = 0, next_pop = 0;
  // Coprime burst sizes force every alignment of the wrap point.
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(r.can_push(1));
      r.push_item(static_cast<double>(next_push++));
    }
    while (next_pop + 5 <= next_push && r.can_pop(5)) {
      ASSERT_TRUE(same_bits(r.peek_item(4), static_cast<double>(next_pop + 4)));
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(same_bits(r.pop_item(), static_cast<double>(next_pop++)));
      }
    }
  }
  while (r.can_pop(1)) {
    ASSERT_TRUE(same_bits(r.pop_item(), static_cast<double>(next_pop++)));
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(r.total_pushed(), next_push);
  EXPECT_EQ(r.total_popped(), next_pop);
  EXPECT_LE(r.high_water(), r.capacity());
}

TEST(SpscRing, PreloadCarriesChannelCounters) {
  SpscRing r(16);
  r.preload({1.0, 2.0, 3.0}, 103, 100);  // channel had pushed 103, popped 100
  EXPECT_EQ(r.total_pushed(), 103);
  EXPECT_EQ(r.total_popped(), 100);
  ASSERT_TRUE(r.can_pop(3));
  EXPECT_TRUE(same_bits(r.pop_item(), 1.0));
  r.push_item(4.0);
  EXPECT_EQ(r.total_pushed(), 104);
  EXPECT_EQ(r.total_popped(), 101);
  EXPECT_TRUE(same_bits(r.pop_item(), 2.0));
  EXPECT_TRUE(same_bits(r.pop_item(), 3.0));
  EXPECT_TRUE(same_bits(r.pop_item(), 4.0));
  EXPECT_FALSE(r.can_pop(1));
}

TEST(SpscRing, PopManyAndUnderrunThrow) {
  SpscRing r(8);
  for (int i = 0; i < 6; ++i) r.push_item(static_cast<double>(i));
  r.pop_many(4);
  EXPECT_EQ(r.total_popped(), 4);
  EXPECT_TRUE(same_bits(r.pop_item(), 4.0));
  EXPECT_THROW(r.pop_many(2), std::runtime_error);
  EXPECT_THROW(r.peek_item(1), std::runtime_error);
  EXPECT_TRUE(same_bits(r.peek_item(0), 5.0));
}

// The ring window (the typed VM's mac-loop and fused segments read through
// it) shows exactly the live items in FIFO order, across the wrap, and
// refuses more than are live.
TEST(SpscRing, WindowShowsLiveItemsAcrossTheWrap) {
  SpscRing r(16);
  for (int i = 0; i < 12; ++i) r.push_item(static_cast<double>(i));
  r.pop_many(10);
  for (int i = 12; i < 24; ++i) r.push_item(static_cast<double>(i));
  ir::TapeWindow w;
  ASSERT_TRUE(r.window(14, &w));
  for (std::size_t k = 0; k < 14; ++k) {
    EXPECT_TRUE(same_bits(w[k], static_cast<double>(10 + k))) << k;
  }
  EXPECT_FALSE(r.window(15, &w));
  EXPECT_TRUE(r.window(0, &w));
  EXPECT_FALSE(r.window(-1, &w));
}

// Two real threads hammer one ring with coprime burst sizes through a
// capacity small enough to wrap thousands of times.  The consumer checks the
// exact item sequence -- any lost ordering, torn read, or stale cache would
// break it.  (Run under the TSan CI job, this is also the data-race probe.)
TEST(SpscRing, ConcurrentCoprimeStress) {
  SpscRing r(64);
  constexpr std::int64_t kItems = 120000;
  std::thread producer([&] {
    std::int64_t sent = 0;
    while (sent < kItems) {
      const std::int64_t burst = std::min<std::int64_t>(7, kItems - sent);
      while (!r.can_push(static_cast<std::size_t>(burst))) {
        std::this_thread::yield();
      }
      for (std::int64_t i = 0; i < burst; ++i) {
        r.push_item(static_cast<double>(sent++));
      }
    }
  });
  std::int64_t got = 0;
  bool ok = true;
  while (got < kItems) {
    const std::int64_t burst = std::min<std::int64_t>(11, kItems - got);
    while (!r.can_pop(static_cast<std::size_t>(burst))) {
      std::this_thread::yield();
    }
    ok = ok && same_bits(r.peek_item(static_cast<int>(burst - 1)),
                         static_cast<double>(got + burst - 1));
    for (std::int64_t i = 0; i < burst; ++i) {
      ok = ok && same_bits(r.pop_item(), static_cast<double>(got++));
    }
  }
  producer.join();
  EXPECT_TRUE(ok) << "ring delivered a wrong or reordered item";
  EXPECT_EQ(r.total_pushed(), kItems);
  EXPECT_EQ(r.total_popped(), kItems);
  EXPECT_FALSE(r.can_pop(1));
  EXPECT_LE(r.high_water(), r.capacity());
}

// Deferred mode batches ring publication: pushes and pops stay private to
// their side until an explicit publish, and each publish costs exactly one
// release store -- pinned via the cumulative publish counters.
TEST(SpscRing, DeferredBatchPublicationCounters) {
  SpscRing r(64, /*deferred=*/true);
  ASSERT_TRUE(r.deferred());
  EXPECT_EQ(r.tail_publishes(), 0);
  EXPECT_EQ(r.head_publishes(), 0);

  // A batch of 10 pushes is one release store, made at publish time.
  for (int i = 0; i < 10; ++i) r.push_item(static_cast<double>(i));
  EXPECT_EQ(r.tail_publishes(), 0);
  EXPECT_EQ(r.size(), 0u);  // nothing visible yet
  r.publish_tail();
  EXPECT_EQ(r.tail_publishes(), 1);
  EXPECT_EQ(r.size(), 10u);
  r.publish_tail();  // nothing new: no store
  EXPECT_EQ(r.tail_publishes(), 1);

  // Symmetric on the consumer side.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(same_bits(r.pop_item(), static_cast<double>(i)));
  }
  EXPECT_EQ(r.head_publishes(), 0);
  EXPECT_EQ(r.total_popped(), 0);  // quiescent counters track publishes
  r.publish_head();
  EXPECT_EQ(r.head_publishes(), 1);
  EXPECT_EQ(r.total_popped(), 10);
  r.publish_head();
  EXPECT_EQ(r.head_publishes(), 1);

  // Immediate mode (the default) publishes inside every push and once per
  // pop_many call, as before.
  SpscRing eager(64);
  EXPECT_FALSE(eager.deferred());
  for (int i = 0; i < 5; ++i) eager.push_item(static_cast<double>(i));
  EXPECT_EQ(eager.tail_publishes(), 5);
  eager.pop_many(3);
  EXPECT_EQ(eager.head_publishes(), 1);
  eager.pop_item();
  EXPECT_EQ(eager.head_publishes(), 2);
}

// Two real threads drive a deferred ring with coprime batch sizes: the
// producer publishes once per 7-item batch, the consumer once per 11-item
// batch, through a capacity small enough to wrap thousands of times.  The
// consumer checks the exact item sequence; the publish counters afterwards
// pin one release store per batch.  (Run under the TSan CI job, this is the
// data-race probe for the bulk-publication protocol.)
TEST(SpscRing, ConcurrentDeferredBatchStress) {
  SpscRing r(64, /*deferred=*/true);
  constexpr std::int64_t kItems = 110000;
  std::thread producer([&] {
    std::int64_t sent = 0;
    while (sent < kItems) {
      const std::int64_t burst = std::min<std::int64_t>(7, kItems - sent);
      while (!r.can_push(static_cast<std::size_t>(burst))) {
        std::this_thread::yield();
      }
      for (std::int64_t i = 0; i < burst; ++i) {
        r.push_item(static_cast<double>(sent++));
      }
      r.publish_tail();
    }
  });
  std::int64_t got = 0;
  bool ok = true;
  while (got < kItems) {
    const std::int64_t burst = std::min<std::int64_t>(11, kItems - got);
    while (!r.can_pop(static_cast<std::size_t>(burst))) {
      std::this_thread::yield();
    }
    ok = ok && same_bits(r.peek_item(static_cast<int>(burst - 1)),
                         static_cast<double>(got + burst - 1));
    for (std::int64_t i = 0; i < burst; ++i) {
      ok = ok && same_bits(r.pop_item(), static_cast<double>(got++));
    }
    r.publish_head();
  }
  producer.join();
  EXPECT_TRUE(ok) << "deferred ring delivered a wrong or reordered item";
  EXPECT_EQ(r.total_pushed(), kItems);
  EXPECT_EQ(r.total_popped(), kItems);
  EXPECT_EQ(r.tail_publishes(), (kItems + 6) / 7);
  EXPECT_EQ(r.head_publishes(), (kItems + 10) / 11);
  EXPECT_FALSE(r.can_pop(1));
  EXPECT_LE(r.high_water(), r.capacity());
}

}  // namespace
}  // namespace sit
