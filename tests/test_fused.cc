// Fused-engine tests: superinstruction selection pins, every refusal
// reason, and fallback equivalence.
//
// The bit-equality contract itself (outputs / OpCounts / channel counters /
// filter state across all apps x all optimization levels) lives in
// test_pipeline_diff.cc; this file pins the *static* artifacts -- which
// superinstructions the peephole selects on the flagship apps, how many
// channels are lowered -- and exercises each path that must refuse fusion
// and degrade to the per-actor VM.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "opt/compile.h"
#include "runtime/fused.h"
#include "runtime/interp.h"
#include "sched/exec.h"

namespace sit {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;

sched::Executor make_fused(ir::NodeP root) {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  return sched::Executor(std::move(root), opts);
}

// Drop the final sink so the program output edge is observable.
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

int actor_id(const runtime::FlatGraph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

// ---- superinstruction selection ---------------------------------------------
//
// Exact instance counts on the unoptimized flagship graphs.  These are
// structural pins: a change means the peephole matcher or the trace layout
// changed, which is worth a deliberate review (and an update here).

TEST(FusedSuper, FirSelectsOneMacLoop) {
  auto ex = make_fused(apps::make_app("FIR"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 1);
  EXPECT_EQ(fp->eliminated_channels, 2);
}

TEST(FusedSuper, VocoderSelectsBandAndAgcPatterns) {
  auto ex = make_fused(apps::make_app("Vocoder"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 9);      // 8 bands + output lowpass
  EXPECT_EQ(fp->super_count("sum-loop"), 1);      // vsum
  EXPECT_EQ(fp->super_count("pop-un-push"), 1);   // rectify (abs)
  EXPECT_EQ(fp->super_count("dup-run"), 1);       // vbank duplicate splitter
  EXPECT_EQ(fp->super_count("copy-run"), 8);      // vbank joiner legs
  EXPECT_EQ(fp->eliminated_channels, 23);
}

TEST(FusedSuper, FilterBankSelectsMacSumAndRouting) {
  auto ex = make_fused(apps::make_app("FilterBank"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 128);  // 8 bands x (8 analysis + 8 synthesis)
  EXPECT_EQ(fp->super_count("sum-loop"), 8);    // combine firings
  EXPECT_EQ(fp->super_count("copy-run"), 64);   // joiner legs x reps
  EXPECT_EQ(fp->super_count("dup-run"), 1);
  EXPECT_EQ(fp->super_count("pop-push"), 8);    // upsample pass-through item
  EXPECT_EQ(fp->eliminated_channels, 43);
}

TEST(FusedSuper, FmRadioSelectsGainAsPopBinPush) {
  auto ex = make_fused(apps::make_app("FMRadio"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 11);      // rf_lp + 10 eq bandpass
  EXPECT_EQ(fp->super_count("sum-loop"), 1);       // eqsum
  EXPECT_EQ(fp->super_count("copy-run"), 10);      // equalizer joiner legs
  EXPECT_EQ(fp->super_count("dup-run"), 1);
  EXPECT_EQ(fp->super_count("pop-bin-push"), 10);  // eqgain scalers
}

TEST(FusedSuper, BitonicSortSelectsRoutingOnly) {
  auto ex = make_fused(apps::make_app("BitonicSort"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("copy-run"), 48);
  EXPECT_EQ(fp->super_count("pop-bin-push"), 24);  // min/max halves of each CE
  EXPECT_EQ(fp->super_count("mac-loop"), 0);
}

TEST(FusedSuper, DesHasNoSuperinstructionPatterns) {
  // Feistel rounds are straight-line integer code: nothing matches.
  auto ex = make_fused(apps::make_app("DES"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_TRUE(fp->super.empty());
}

TEST(FusedSuper, DisassemblyAnnotatesSuperinstructions) {
  auto ex = make_fused(apps::make_app("FIR"));
  ASSERT_NE(ex.fused_program(), nullptr);
  const std::string dis = ex.fused_program()->disassemble();
  EXPECT_NE(dis.find("mac-loop"), std::string::npos);
}

// ---- refusal reasons --------------------------------------------------------

NodeP tiny_src(const std::string& name) {
  return filter(name)
      .rates(0, 0, 1)
      .iscalar("seed", 1)
      .work(seq({let("seed", v("seed") + ci(1)),
                 push_(to_float(v("seed")))}))
      .node();
}

NodeP tiny_snk(const std::string& name) {
  return filter(name).rates(1, 1, 0).work(seq({discard(1)})).node();
}

TEST(FusedRefusal, WorkOutsideBytecodeSubsetIsVmFallback) {
  // The for variable shadows a state scalar, which compile_filter refuses;
  // there is no bytecode template to inline, so fusion refuses too (and the
  // actor runs on the tree interpreter as usual).
  auto bad = filter("bad")
                 .rates(1, 1, 1)
                 .scalar("i", ir::Value(0.0))
                 .work(seq({let("x", pop_()),
                            for_("i", 0, 1, let("y", v("x"))),
                            push_(v("x"))}))
                 .node();
  auto ex = make_fused(make_pipeline("p", {tiny_src("s"), bad, tiny_snk("k")}));
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal().rfind("vm-fallback:bad (", 0), 0u)
      << ex.fused_refusal();
  ex.run_steady(3);  // still runs, per-actor
  const int src = actor_id(ex.graph(), "s");
  ASSERT_GE(src, 0);
  EXPECT_EQ(ex.firings()[static_cast<std::size_t>(src)],
            3 * ex.schedule().reps[static_cast<std::size_t>(src)] +
                ex.schedule().init_fires[static_cast<std::size_t>(src)]);
}

TEST(FusedRefusal, TeleportSendingFilterRefuses) {
  auto monitor = filter("monitor")
                     .rates(1, 1, 1)
                     .work(seq({let("x", pop_()),
                                if_(v("x") == c(5.0),
                                    ir::send("p", "boost", {c(2.0).e}, 1, 1)),
                                push_(v("x"))}))
                     .node();
  auto ex =
      make_fused(make_pipeline("p", {tiny_src("s"), monitor, tiny_snk("k")}));
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "teleport-send:monitor");
}

TEST(FusedRefusal, MessageSinkAttachedRefuses) {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.message_sink = [](const runtime::SentMessage&) {};
  sched::Executor ex(apps::make_app("FIR"), opts);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "message-sink-attached");
}

TEST(FusedRefusal, TracingEnabledRefuses) {
  if (!sched::resolve_trace(sched::TraceMode::On)) {
    GTEST_SKIP() << "observability instrumentation compiled out";
  }
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.trace = sched::TraceMode::On;
  sched::Executor ex(apps::make_app("FIR"), opts);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "tracing-enabled");
}

TEST(FusedRefusal, FeedbackLoopIsNotSingleAppearance) {
  // DtoA's noise shaper is a tight feedback loop: the schedule is valid but
  // not single-appearance, so the flat trace's firing order would deadlock.
  auto ex = make_fused(apps::make_app("DtoA"));
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal().rfind("not-single-appearance:", 0), 0u)
      << ex.fused_refusal();
  EXPECT_NE(ex.fused_refusal().find("fbjoin"), std::string::npos)
      << ex.fused_refusal();
}

TEST(FusedRefusal, RefusedProgramStillMatchesVmBitExactly) {
  auto fused = make_fused(observable(apps::make_app("DtoA")));
  ASSERT_EQ(fused.fused_program(), nullptr);  // per-actor fallback

  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(observable(apps::make_app("DtoA")), vopt);

  const auto fout = fused.run_steady(4);
  const auto vout = vm.run_steady(4);
  ASSERT_EQ(fout.size(), vout.size());
  for (std::size_t i = 0; i < fout.size(); ++i) {
    EXPECT_EQ(fout[i], vout[i]) << "item " << i;
  }
  EXPECT_EQ(fused.firings(), vm.firings());
  EXPECT_EQ(fused.total_ops().flops, vm.total_ops().flops);
  EXPECT_EQ(fused.total_ops().channel, vm.total_ops().channel);
}

TEST(FusedRefusal, MetricsCarryRefusalDetail) {
  auto ex = make_fused(apps::make_app("DtoA"));
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.engine, "fused");
  EXPECT_EQ(m.fallback, "fused-refused");
  EXPECT_EQ(m.fallback_detail.rfind("not-single-appearance:", 0), 0u);
  EXPECT_EQ(m.fused_channels, -1);  // no active trace to report statics for
}

TEST(FusedMetrics, ActiveTraceReportsChannelAndSuperStatics) {
  // The trace runs only through its typed lowering (SIT_TYPED=0 would run
  // per-actor and report fused-refused), so pin typed on.
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.typed = sched::TypedMode::On;
  sched::Executor ex(apps::make_app("FIR"), opts);
  ASSERT_NE(ex.typed_fused_program(), nullptr) << ex.typed_fused_refusal();
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.engine, "fused");
  EXPECT_EQ(m.fallback, "none");
  EXPECT_EQ(m.fused_channels, 2);
  bool saw_mac = false;
  for (const auto& [name, n] : m.fused_super) {
    if (name == "mac-loop") {
      saw_mac = true;
      EXPECT_EQ(n, 1);
    }
  }
  EXPECT_TRUE(saw_mac);
}

// ---- rolled trace -----------------------------------------------------------
//
// Each actor appears once in the trace, its repetitions rolled into a
// counted loop (runtime/fused.h), so the trace is proportional to the graph.

// `app` compiled at `level` on one thread (the -O2 preset coarsens only when
// threaded), run on the typed fused engine.
sched::Executor make_fused_at(const std::string& app, opt::OptLevel level) {
  opt::CompileOptions copts;
  copts.level = level;
  copts.exec.threads = 1;
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.typed = sched::TypedMode::On;
  return sched::Executor(opt::compile(apps::make_app(app), copts), opts);
}

std::map<std::string, std::int64_t> super_of(const runtime::FusedProgram& fp) {
  return {fp.super.begin(), fp.super.end()};
}

TEST(FusedRoll, O2TracesAreProportionalToTheGraph) {
  // Superinstruction counts are instances per iteration, so rolling an
  // actor's firings into a loop must not change them.
  const struct {
    const char* app;
    std::size_t max_instrs;
    std::map<std::string, std::int64_t> super;
  } cases[] = {
      {"FIR", 64, {}},
      {"FMRadio", 64, {}},
      {"ChannelVocoder",
       10000,
       {{"copy-run", 7633},
        {"dup-run", 1},
        {"mac-loop", 7633},
        {"pop-un-push", 7633}}},
  };
  for (const auto& c : cases) {
    auto ex = make_fused_at(c.app, opt::OptLevel::O2);
    const runtime::FusedProgram* fp = ex.fused_program();
    ASSERT_NE(fp, nullptr) << c.app << ": " << ex.fused_refusal();
    EXPECT_NE(ex.typed_fused_program(), nullptr)
        << c.app << ": " << ex.typed_fused_refusal();
    EXPECT_LE(fp->code.size(), c.max_instrs) << c.app;
    EXPECT_EQ(super_of(*fp), c.super) << c.app;
  }
}

TEST(FusedRoll, TypedLoweringCoversEveryFusableAppAtO0AndO2) {
  for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    for (const auto& app : apps::all_apps()) {
      auto ex = make_fused_at(app.name, level);
      if (app.name == "DtoA") {
        EXPECT_EQ(ex.fused_program(), nullptr);
        EXPECT_EQ(ex.fused_refusal(), "not-single-appearance:noiseshaper.fbjoin");
        continue;
      }
      ASSERT_NE(ex.fused_program(), nullptr)
          << app.name << ": " << ex.fused_refusal();
      EXPECT_NE(ex.typed_fused_program(), nullptr)
          << app.name << ": " << ex.typed_fused_refusal();
    }
  }
}

// Items the source actors emit per steady state (bench_fused's and
// e2ebench's normalization: invariant under linear rewrites).
std::int64_t source_items(const sched::Executor& ex) {
  const runtime::FlatGraph& g = ex.graph();
  std::int64_t n = 0;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    bool has_in = false;
    for (const int e : g.actors[i].in_edges) has_in |= e >= 0;
    if (!has_in) n += ex.schedule().reps[i] * g.actors[i].push_rate();
  }
  return n;
}

// Instructions one steady state dispatches, counted statically: a rolled
// trace counts each actor's body reps[a] times (a superinstruction is one
// dispatch, loops inside a body count once).  A program the fused engine
// refuses counts its per-actor typed programs: reps[a] x the work program
// per filter, one dispatch per other firing.
std::int64_t static_dispatches(const sched::Executor& ex) {
  if (const runtime::FusedProgram* fp = ex.fused_program()) {
    std::vector<std::int64_t> weight(fp->code.size(), 1);
    for (std::size_t pc = 0; pc < fp->code.size(); ++pc) {
      if (fp->code[pc].op != runtime::FOp::Repeat) continue;
      for (auto k = static_cast<std::size_t>(fp->code[pc].jump); k <= pc; ++k) {
        weight[k] = fp->reps[fp->code[pc].a];
      }
    }
    std::int64_t n = 0;
    for (const std::int64_t w : weight) n += w;
    return n;
  }
  std::int64_t n = 0;
  for (std::size_t a = 0; a < ex.graph().actors.size(); ++a) {
    const std::int64_t reps = ex.schedule().reps[a];
    if (!ex.graph().actors[a].is_filter()) {
      n += reps;
      continue;
    }
    const runtime::TypedFilter* tp = ex.typed_program(static_cast<int>(a));
    if (tp == nullptr) {
      ADD_FAILURE() << ex.graph().actors[a].name << " is not typed: "
                    << ex.typed_refusal(static_cast<int>(a));
      continue;
    }
    n += reps * static_cast<std::int64_t>(tp->work.code.size());
  }
  return n;
}

TEST(FusedRoll, O2NeverDispatchesMorePerItemThanO0) {
  // Linear combination must not buy a cheaper modeled cost with a longer
  // executed program: per source item, the -O2 program dispatches no more
  // instructions than the -O0 one, on every app.
  for (const auto& app : apps::all_apps()) {
    double per_item[2] = {0, 0};
    int k = 0;
    for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
      auto ex = make_fused_at(app.name, level);
      const std::int64_t items = source_items(ex);
      ASSERT_GT(items, 0) << app.name;
      per_item[k++] = static_cast<double>(static_dispatches(ex)) /
                      static_cast<double>(items);
    }
    std::printf("%-15s dispatches/item  O0 %9.2f  O2 %9.2f\n", app.name.c_str(),
                per_item[0], per_item[1]);
    EXPECT_LE(per_item[1], per_item[0]) << app.name;
  }
}

// src pushes two items per firing, so `overpeek` fires twice per iteration.
// Its second firing of each iteration peeks past the declared window of 2
// (peek(1) after one pop).
sched::CompiledProgram overpeek_program() {
  auto src = filter("s2")
                 .rates(0, 0, 2)
                 .iscalar("seed", 1)
                 .work(seq({let("seed", v("seed") + ci(1)),
                            push_(to_float(v("seed"))),
                            push_(to_float(v("seed")))}))
                 .node();
  auto over = filter("overpeek")
                  .rates(2, 1, 1)
                  .iscalar("n", 0)
                  .work(seq({let("t", peek_(ci(0))), discard(1),
                             if_(v("n") % ci(2) == ci(1),
                                 let("t", peek_(ci(1)))),
                             let("n", v("n") + ci(1)), push_(v("t"))}))
                  .node();
  // Built without the analysis gate, which would reject the over-peek.
  sched::CompiledProgram p;
  p.graph = make_pipeline("p", {src, over, tiny_snk("k")});
  p.flat = runtime::flatten(p.graph);
  p.schedule = sched::make_schedule(p.flat);
  return p;
}

TEST(FusedRoll, BackEdgeRestartsThePeekWindow) {
  runtime::set_debug_channel_checks(true);
  struct Restore {
    ~Restore() { runtime::set_debug_channel_checks(false); }
  } restore;

  const auto error_of = [](sched::Engine engine) {
    sched::ExecOptions opts;
    opts.engine = engine;
    opts.typed = sched::TypedMode::On;
    sched::Executor ex(overpeek_program(), opts);
    const int over = actor_id(ex.graph(), "overpeek");
    EXPECT_EQ(ex.schedule().reps[static_cast<std::size_t>(over)], 2);
    EXPECT_EQ(ex.schedule().init_fires[static_cast<std::size_t>(over)], 0);
    if (engine == sched::Engine::Fused) {
      EXPECT_NE(ex.typed_fused_program(), nullptr) << ex.typed_fused_refusal();
    }
    try {
      ex.run_steady(1);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string want =
      "peek out of bounds in 'overpeek': peek(1) after 1 pop(s) exceeds the "
      "declared window of 2";
  EXPECT_EQ(error_of(sched::Engine::Vm), want);
  EXPECT_EQ(error_of(sched::Engine::Fused), want);
}

TEST(FusedRoll, DisassemblyPrintsEachLoop) {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  sched::Executor ex(overpeek_program(), opts);
  ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  const std::string dis = ex.fused_program()->disassemble();
  EXPECT_NE(dis.find("repeat ×2 overpeek"), std::string::npos) << dis;
}

TEST(FusedRoll, MetricsReportTheRolledTraceLength) {
  auto ex = make_fused_at("ChannelVocoder", opt::OptLevel::O2);
  ASSERT_NE(ex.typed_fused_program(), nullptr) << ex.typed_fused_refusal();
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.fused_trace_instrs,
            static_cast<std::int64_t>(ex.fused_program()->code.size()));
  EXPECT_NE(m.to_json().find("\"fused_trace_instrs\": " +
                             std::to_string(m.fused_trace_instrs)),
            std::string::npos);
}

// ---- engine selection -------------------------------------------------------

TEST(FusedEngine, EnvSelectsFused) {
  const char* old = std::getenv("SIT_ENGINE");
  const std::string saved = old != nullptr ? old : "";
  setenv("SIT_ENGINE", "fused", 1);
  EXPECT_EQ(sched::resolve_engine(sched::Engine::Auto), sched::Engine::Fused);
  if (old != nullptr) {
    setenv("SIT_ENGINE", saved.c_str(), 1);
  } else {
    unsetenv("SIT_ENGINE");
  }
}

// ---- activation fallback ----------------------------------------------------

TEST(FusedExecution, ManualFireMidIterationFallsBackAndStaysBitEqual) {
  // A manual fire() leaves an internal channel above its steady-state carry,
  // so activate() must refuse and run_steady must take the per-actor path --
  // producing exactly what the VM produces from the same state.
  auto fused = make_fused(observable(apps::make_app("FIR")));
  ASSERT_NE(fused.fused_program(), nullptr);

  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(observable(apps::make_app("FIR")), vopt);

  fused.run_init();
  vm.run_init();
  const int src_f = actor_id(fused.graph(), "src");
  const int src_v = actor_id(vm.graph(), "src");
  ASSERT_GE(src_f, 0);
  ASSERT_TRUE(fused.can_fire(src_f));
  fused.fire(src_f);
  vm.fire(src_v);

  const auto fout = fused.run_steady(3);
  const auto vout = vm.run_steady(3);
  ASSERT_EQ(fout.size(), vout.size());
  for (std::size_t i = 0; i < fout.size(); ++i) {
    EXPECT_EQ(fout[i], vout[i]) << "item " << i;
  }
  EXPECT_EQ(fused.firings(), vm.firings());
  EXPECT_EQ(fused.total_ops().flops, vm.total_ops().flops);
  EXPECT_EQ(fused.total_ops().channel, vm.total_ops().channel);

  // With the graph back at its steady-state carry, later run_steady calls
  // fuse again -- and must seamlessly continue the same stream.
  const auto f2 = fused.run_steady(3);
  const auto v2 = vm.run_steady(3);
  ASSERT_EQ(f2.size(), v2.size());
  for (std::size_t i = 0; i < f2.size(); ++i) {
    EXPECT_EQ(f2[i], v2[i]) << "item " << i;
  }
}

}  // namespace
}  // namespace sit
