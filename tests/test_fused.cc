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

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "runtime/fused.h"
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
