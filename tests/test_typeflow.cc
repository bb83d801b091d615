// Typed-dataflow tests: the canonical value-tag contract, static inference
// and specialization on the flagship apps, every refusal reason with its
// stable string, and the SIT_TYPED=0 vs =1 bit-equality contract.
//
// The cross-engine bit-equality contract (tree/VM/fused/threaded at every
// optimization level, typed on by default) lives in test_pipeline_diff.cc;
// this file pins the typed plane's *own* artifacts: which tags the lattice
// assigns, which filters specialize, why the rest refuse, and that the
// tagged fallback is bit-identical when inference refuses or SIT_TYPED=0.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/typeflow.h"
#include "apps/apps.h"
#include "ir/dsl.h"
#include "runtime/eval_ops.h"
#include "runtime/typed.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;
using runtime::Tag;

// Drop the final sink so the program output edge is observable.
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

sched::Executor make_exec(ir::NodeP root, sched::Engine engine,
                          sched::TypedMode typed) {
  sched::ExecOptions opts;
  opts.engine = engine;
  opts.typed = typed;
  return sched::Executor(std::move(root), opts);
}

int actor_id(const runtime::FlatGraph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void expect_bit_equal(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " item " << i;
  }
}

// Run the same program typed-on and typed-off under `engine` and require the
// entire observable surface to be bit-identical.
void expect_typed_off_parity(const ir::NodeP& app, sched::Engine engine,
                             const std::string& what, int steady = 4) {
  auto on = make_exec(ir::clone(app), engine, sched::TypedMode::On);
  auto off = make_exec(ir::clone(app), engine, sched::TypedMode::Off);
  EXPECT_TRUE(on.typed_enabled()) << what;
  EXPECT_FALSE(off.typed_enabled()) << what;
  expect_bit_equal(on.run_steady(steady), off.run_steady(steady), what);
  EXPECT_EQ(on.firings(), off.firings()) << what;
  EXPECT_EQ(on.total_ops().int_ops, off.total_ops().int_ops) << what;
  EXPECT_EQ(on.total_ops().flops, off.total_ops().flops) << what;
  EXPECT_EQ(on.total_ops().divs, off.total_ops().divs) << what;
  EXPECT_EQ(on.total_ops().trans, off.total_ops().trans) << what;
  EXPECT_EQ(on.total_ops().mem, off.total_ops().mem) << what;
  EXPECT_EQ(on.total_ops().channel, off.total_ops().channel) << what;
}

// ---- the canonical tag of every opcode result -------------------------------
//
// The lattice (runtime/typed.h) assigns a comparison/logic result the Int
// tag statically; these pins hold the runtime kernels to that contract for
// every opcode and both operand planes, so inference can never disagree with
// execution.

TEST(ValueTags, BoolConstructionIsCanonicalInt) {
  const ir::Value t(true);
  const ir::Value f(false);
  EXPECT_TRUE(t.is_int());
  EXPECT_TRUE(f.is_int());
  EXPECT_EQ(t.as_int(), 1);
  EXPECT_EQ(f.as_int(), 0);
}

TEST(ValueTags, EveryComparisonOpcodeProducesInt) {
  using ir::BinOp;
  const ir::Value id(3), jd(4);
  const ir::Value xd(3.5), yd(4.5);
  for (BinOp op : {BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq,
                   BinOp::Ne}) {
    const ir::Value ri = runtime::apply_bin(op, id, jd);
    const ir::Value rd = runtime::apply_bin(op, xd, yd);
    const ir::Value rm = runtime::apply_bin(op, id, yd);  // mixed operands
    EXPECT_TRUE(ri.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(rd.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(rm.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(ri.as_int() == 0 || ri.as_int() == 1);
    EXPECT_TRUE(rd.as_int() == 0 || rd.as_int() == 1);
  }
}

TEST(ValueTags, EveryLogicOpcodeProducesInt) {
  using ir::BinOp;
  using ir::UnOp;
  const ir::Value xd(2.5), zd(0.0);
  for (BinOp op : {BinOp::LAnd, BinOp::LOr}) {
    const ir::Value r = runtime::apply_bin(op, xd, zd);
    EXPECT_TRUE(r.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(r.as_int() == 0 || r.as_int() == 1);
  }
  const ir::Value n = runtime::apply_un(UnOp::LNot, xd);
  EXPECT_TRUE(n.is_int());
  EXPECT_EQ(n.as_int(), 0);
  EXPECT_EQ(runtime::apply_un(UnOp::LNot, zd).as_int(), 1);
}

TEST(ValueTags, BitwiseOpcodesProduceIntEvenFromDoubles) {
  using ir::BinOp;
  using ir::UnOp;
  const ir::Value xd(6.9), yd(3.2);  // truncating as_int, like Value does
  for (BinOp op :
       {BinOp::BAnd, BinOp::BOr, BinOp::BXor, BinOp::Shl, BinOp::Shr}) {
    EXPECT_TRUE(runtime::apply_bin(op, xd, yd).is_int())
        << static_cast<int>(op);
  }
  EXPECT_TRUE(runtime::apply_un(UnOp::BNot, xd).is_int());
  EXPECT_TRUE(runtime::apply_un(UnOp::ToInt, xd).is_int());
  EXPECT_FALSE(runtime::apply_un(UnOp::ToFloat, ir::Value(3)).is_int());
}

TEST(ValueTags, TypedKernelsAgreeWithTaggedKernelsOnEveryBoolOpcode) {
  using ir::BinOp;
  using ir::UnOp;
  double dr[3] = {3.5, 4.5, 0.0};
  std::int64_t ir_[3] = {0, 0, 0};
  for (BinOp op : {BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq,
                   BinOp::Ne, BinOp::LAnd, BinOp::LOr}) {
    runtime::typed_bin(op, dr, ir_, 2, 0, 1,
                       runtime::kModeAD | runtime::kModeBD);
    const ir::Value want =
        runtime::apply_bin(op, ir::Value(dr[0]), ir::Value(dr[1]));
    ASSERT_TRUE(want.is_int());
    EXPECT_EQ(ir_[2], want.as_int()) << static_cast<int>(op);
  }
  runtime::typed_un(UnOp::LNot, dr, ir_, 2, 0, runtime::kModeAD);
  EXPECT_EQ(ir_[2], 0);
}

TEST(ValueTags, JoinLattice) {
  EXPECT_EQ(runtime::join_tag(Tag::Int, Tag::Int), Tag::Int);
  EXPECT_EQ(runtime::join_tag(Tag::Double, Tag::Double), Tag::Double);
  EXPECT_EQ(runtime::join_tag(Tag::Int, Tag::Double), Tag::Mixed);
  EXPECT_EQ(runtime::join_tag(Tag::Mixed, Tag::Int), Tag::Mixed);
  EXPECT_EQ(runtime::value_tag(ir::Value(1)), Tag::Int);
  EXPECT_EQ(runtime::value_tag(ir::Value(1.0)), Tag::Double);
  EXPECT_STREQ(runtime::tag_name(Tag::Int), "int");
  EXPECT_STREQ(runtime::tag_name(Tag::Double), "double");
  EXPECT_STREQ(runtime::tag_name(Tag::Mixed), "mixed");
}

// ---- specialization on the flagship apps ------------------------------------

TEST(TypedSpecialize, FirFiltersAllSpecialize) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Vm,
                      sched::TypedMode::On);
  ASSERT_TRUE(ex.typed_enabled());
  const auto& g = ex.graph();
  int typed = 0;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].kind != runtime::FlatActor::Kind::Filter) continue;
    EXPECT_TRUE(ex.actor_uses_typed(static_cast<int>(i)))
        << g.actors[i].name << ": " << ex.typed_refusal(static_cast<int>(i));
    ++typed;
  }
  EXPECT_EQ(typed, 3);
  const int fir = actor_id(g, "fir");
  ASSERT_GE(fir, 0);
  const runtime::TypedFilter* tp = ex.typed_program(fir);
  ASSERT_NE(tp, nullptr);
  EXPECT_GT(tp->work.typed_regs, 0);
  EXPECT_EQ(tp->work.push_tag, Tag::Double);
}

TEST(TypedSpecialize, FirFusedTraceGoesTyped) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::On);
  ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  EXPECT_NE(ex.typed_fused_program(), nullptr) << ex.typed_fused_refusal();
}

TEST(TypedSpecialize, TypedOffDisablesBothLayers) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::Off);
  EXPECT_FALSE(ex.typed_enabled());
  EXPECT_EQ(ex.typed_fused_program(), nullptr);
  EXPECT_EQ(ex.typed_fused_refusal(), "typed-off");
  const auto& g = ex.graph();
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    EXPECT_FALSE(ex.actor_uses_typed(static_cast<int>(i)));
  }
  // The fused trace only runs typed: Engine::Fused steps per-actor and the
  // metrics name the reason.
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.fallback, "fused-refused");
  EXPECT_EQ(m.fallback_detail, "typed-off");
  EXPECT_EQ(m.fused_channels, -1);
}

TEST(TypedSpecialize, WholeGraphAnalysisMatchesExecutorOnFir) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Vm,
                      sched::TypedMode::On);
  const analysis::TypeflowResult tf = analysis::typeflow(ex.graph());
  EXPECT_EQ(tf.candidates, 3);
  EXPECT_EQ(tf.typed_actors, 3);
  EXPECT_GT(tf.typed_regs, 0);
  ASSERT_EQ(tf.edge_content.size(), ex.graph().edges.size());
  EXPECT_EQ(tf.typed_channels, static_cast<int>(tf.edge_content.size()));
  EXPECT_EQ(tf.int_channels, 0);
  const std::string table = tf.describe(ex.graph());
  EXPECT_NE(table.find("3/3 filter(s) specialized"), std::string::npos)
      << table;
  // The 128-tap loop runs as one per-actor mac-loop, as the executor's own
  // typed program does.
  EXPECT_EQ(tf.mac_loops, 1);
  for (std::size_t a = 0; a < ex.graph().actors.size(); ++a) {
    const auto* tp = ex.typed_program(static_cast<int>(a));
    const int macs = tp != nullptr ? static_cast<int>(tp->macs.size()) : 0;
    EXPECT_EQ(tf.actors[a].mac_loops + tf.actors[a].sum_loops, macs)
        << ex.graph().actors[a].name;
  }
  EXPECT_NE(table.find("1 mac-loop(s)"), std::string::npos) << table;
}

// ---- refusal taxonomy -------------------------------------------------------

NodeP tiny_src(const std::string& name) {
  return filter(name)
      .rates(0, 0, 1)
      .iscalar("seed", 1)
      .work(seq({let("seed", v("seed") + ci(1)),
                 push_(to_float(v("seed")))}))
      .node();
}

// A register that is Int on one path and Double on the other: the merge join
// makes it Mixed, and the read after the merge must refuse.
NodeP mixed_register_filter(const std::string& name) {
  return filter(name)
      .rates(1, 1, 1)
      .work(seq({let("t", ci(0)),
                 let("x", pop_()),
                 if_(v("x") > c(0.5), let("t", v("x"))),
                 push_(to_float(v("t")))}))
      .node();
}

// A state scalar seeded Int whose work stores a Double into it: the state
// class joins to Mixed, and the whole filter must refuse.
NodeP mixed_state_filter(const std::string& name) {
  return filter(name)
      .rates(1, 1, 1)
      .iscalar("acc", 0)
      .work(seq({let("x", pop_()),
                 let("acc", v("acc") + v("x")),
                 push_(v("x"))}))
      .node();
}

TEST(TypedRefusal, MixedRegisterRefusesWithStableReason) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_register_filter("mixr")}),
      sched::Engine::Vm, sched::TypedMode::On);
  const int a = actor_id(ex.graph(), "mixr");
  ASSERT_GE(a, 0);
  EXPECT_FALSE(ex.actor_uses_typed(a));
  EXPECT_EQ(ex.typed_refusal(a), "mixed-register");
  // The source still specializes: refusal is per-actor, never per-graph.
  const int s = actor_id(ex.graph(), "s");
  ASSERT_GE(s, 0);
  EXPECT_TRUE(ex.actor_uses_typed(s)) << ex.typed_refusal(s);
}

TEST(TypedRefusal, MixedStateRefusesNamingTheSlot) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Vm, sched::TypedMode::On);
  const int a = actor_id(ex.graph(), "mixs");
  ASSERT_GE(a, 0);
  EXPECT_FALSE(ex.actor_uses_typed(a));
  EXPECT_EQ(ex.typed_refusal(a), "mixed-state:acc");
}

TEST(TypedRefusal, FusedTraceRefusalQualifiesTheActor) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_register_filter("mixr")}),
      sched::Engine::Fused, sched::TypedMode::On);
  ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  EXPECT_EQ(ex.typed_fused_program(), nullptr);
  EXPECT_EQ(ex.typed_fused_refusal(), "mixed-register:mixr");
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.fallback, "fused-refused");
  EXPECT_EQ(m.fallback_detail, "mixed-register:mixr");
  EXPECT_EQ(m.fused_channels, -1);
}

TEST(TypedRefusal, FusedTraceRefusalRunsPerActorBitEqualToVm) {
  // A refused typed lowering leaves the fused program built but idle: steady
  // states run per-actor, exactly as Engine::Vm runs them.
  const auto mk = [] {
    return make_pipeline("p", {tiny_src("s"), mixed_register_filter("mixr")});
  };
  auto fused = make_exec(mk(), sched::Engine::Fused, sched::TypedMode::On);
  auto vm = make_exec(mk(), sched::Engine::Vm, sched::TypedMode::On);
  ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
  ASSERT_EQ(fused.typed_fused_program(), nullptr);
  expect_bit_equal(fused.run_steady(6), vm.run_steady(6), "mixed-register");
  EXPECT_EQ(fused.firings(), vm.firings());
  ASSERT_EQ(fused.actor_ops().size(), vm.actor_ops().size());
  for (std::size_t i = 0; i < vm.actor_ops().size(); ++i) {
    const runtime::OpCounts& f = fused.actor_ops()[i];
    const runtime::OpCounts& v = vm.actor_ops()[i];
    EXPECT_EQ(f.int_ops, v.int_ops) << "actor " << i;
    EXPECT_EQ(f.flops, v.flops) << "actor " << i;
    EXPECT_EQ(f.divs, v.divs) << "actor " << i;
    EXPECT_EQ(f.trans, v.trans) << "actor " << i;
    EXPECT_EQ(f.mem, v.mem) << "actor " << i;
    EXPECT_EQ(f.channel, v.channel) << "actor " << i;
  }
}

TEST(TypedRefusal, FusedMixedStateQualifiesActorAndSlot) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Fused, sched::TypedMode::On);
  ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  EXPECT_EQ(ex.typed_fused_program(), nullptr);
  EXPECT_EQ(ex.typed_fused_refusal(), "mixed-state:mixs.acc");
}

TEST(TypedRefusal, HandlersRefuse) {
  auto h = filter("h")
               .rates(1, 1, 1)
               .scalar("g", ir::Value(1.0))
               .handler("boost", {"amt"}, seq({let("g", v("amt"))}))
               .work(seq({push_(pop_() * v("g"))}))
               .node();
  auto ex = make_exec(make_pipeline("p", {tiny_src("s"), h}),
                      sched::Engine::Vm, sched::TypedMode::On);
  const int a = actor_id(ex.graph(), "h");
  ASSERT_GE(a, 0);
  EXPECT_FALSE(ex.actor_uses_typed(a));
  EXPECT_EQ(ex.typed_refusal(a), "has-handlers");
}

TEST(TypedRefusal, RefusedFilterRunsBitEqualOnTaggedFallback) {
  const auto mk = [] {
    return make_pipeline("p", {tiny_src("s"), mixed_register_filter("mixr")});
  };
  expect_typed_off_parity(mk(), sched::Engine::Vm, "mixed-register vm");
  expect_typed_off_parity(mk(), sched::Engine::Fused, "mixed-register fused");

  const auto mks = [] {
    return make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")});
  };
  expect_typed_off_parity(mks(), sched::Engine::Vm, "mixed-state vm");
  expect_typed_off_parity(mks(), sched::Engine::Fused, "mixed-state fused");
}

// ---- SIT_TYPED=0 vs =1 across the whole suite -------------------------------

TEST(TypedDiff, AllAppsBitEqualTypedOnVsOffUnderVmAndFused) {
  for (const auto& app : apps::all_apps()) {
    const ir::NodeP obs = observable(app.make());
    expect_typed_off_parity(obs, sched::Engine::Vm, app.name + " vm");
    expect_typed_off_parity(obs, sched::Engine::Fused, app.name + " fused");
  }
}

TEST(TypedDiff, ThreadedRuntimeBitEqualTypedOnVsOff) {
  for (const char* name : {"FIR", "FilterBank", "Vocoder"}) {
    sched::ExecOptions on;
    on.threads = 4;
    on.typed = sched::TypedMode::On;
    sched::ThreadedExecutor ton(observable(apps::make_app(name)), on);

    sched::ExecOptions off;
    off.threads = 4;
    off.typed = sched::TypedMode::Off;
    sched::ThreadedExecutor toff(observable(apps::make_app(name)), off);

    expect_bit_equal(ton.run_steady(6), toff.run_steady(6),
                     std::string(name) + " 4-thread");
    EXPECT_EQ(ton.firings(), toff.firings()) << name;
  }
}

// ---- env knob ---------------------------------------------------------------

TEST(TypedEnv, OnlyZeroAndOffDisable) {
  const char* old = std::getenv("SIT_TYPED");
  const std::string saved = old != nullptr ? old : "";
  setenv("SIT_TYPED", "0", 1);
  EXPECT_FALSE(sched::resolve_typed(sched::TypedMode::Auto));
  setenv("SIT_TYPED", "off", 1);
  EXPECT_FALSE(sched::resolve_typed(sched::TypedMode::Auto));
  setenv("SIT_TYPED", "1", 1);
  EXPECT_TRUE(sched::resolve_typed(sched::TypedMode::Auto));
  setenv("SIT_TYPED", "auto", 1);
  EXPECT_TRUE(sched::resolve_typed(sched::TypedMode::Auto));
  unsetenv("SIT_TYPED");
  EXPECT_TRUE(sched::resolve_typed(sched::TypedMode::Auto));
  EXPECT_FALSE(sched::resolve_typed(sched::TypedMode::Off));
  EXPECT_TRUE(sched::resolve_typed(sched::TypedMode::On));
  if (old != nullptr) setenv("SIT_TYPED", saved.c_str(), 1);
}

// ---- metrics ----------------------------------------------------------------

TEST(TypedMetrics, SnapshotCarriesSpecializationCountersAndEdgeContent) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::On);
  ex.run_steady(2);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.typed_actors, 3);
  EXPECT_GT(m.typed_regs, 0);
  EXPECT_EQ(m.typed_channels, static_cast<int>(m.edges.size()));
  for (const auto& a : m.actors) {
    EXPECT_EQ(a.typed_status, "typed") << a.name;
  }
  for (const auto& e : m.edges) {
    EXPECT_EQ(e.content, "double") << e.name;
  }
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"typed_actors\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"typed\": \"typed\""), std::string::npos);
  EXPECT_NE(json.find("\"content\": \"double\""), std::string::npos);
}

TEST(TypedMetrics, OffSnapshotOmitsTypedBlock) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Vm,
                      sched::TypedMode::Off);
  ex.run_steady(2);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.typed_actors, -1);
  EXPECT_EQ(m.to_json().find("typed_actors"), std::string::npos);
  for (const auto& a : m.actors) EXPECT_TRUE(a.typed_status.empty());
  for (const auto& e : m.edges) EXPECT_TRUE(e.content.empty());
}

TEST(TypedMetrics, RefusalSurfacesInActorStatus) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Vm, sched::TypedMode::On);
  ex.run_steady(2);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  bool saw = false;
  for (const auto& a : m.actors) {
    if (a.name == "mixs") {
      saw = true;
      EXPECT_EQ(a.typed_status, "mixed-state:acc");
      EXPECT_EQ(a.typed_regs, 0);
    }
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace sit
