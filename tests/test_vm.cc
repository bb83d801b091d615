// Differential tests: the per-actor typed VM must be observationally
// identical to the tree interpreter.  Every built-in application and a
// population of randomized work functions run under both engines; outputs,
// filter state, operation counts, cumulative channel counters, and sent
// messages are held bit-equal.  Also covers the ring-buffer channel itself
// and the per-filter tree fallback for filters the bytecode compiler or the
// typed lowering refuses (teleport senders, handlers, out-of-subset work).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "runtime/channel.h"
#include "runtime/compile.h"
#include "runtime/interp.h"
#include "runtime/typed.h"
#include "runtime/vm.h"
#include "sched/exec.h"

namespace sit {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::Value;
using runtime::Channel;
using runtime::FilterState;
using runtime::Interp;
using runtime::OpCounts;
using runtime::SentMessage;

// ---- comparison helpers -----------------------------------------------------

// Bit-level double equality: NaN == NaN, and +0.0 != -0.0.  The two engines
// share the scalar kernels in eval_ops.h, so even NaN payloads must agree.
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

// ---- whole-application differential -----------------------------------------

// Run every built-in app under both engines and hold all observables equal:
// program output (bitwise), per-actor firing tallies and OpCounts, the
// cumulative n(t)/p(t) counters of every channel, and the final state of
// every AST filter.
TEST(VmDifferential, AllAppsMatchTreeInterpreter) {
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    sched::ExecOptions topt;
    topt.engine = sched::Engine::Tree;
    sched::Executor tree(info.make(), topt);
    sched::ExecOptions vopt;
    vopt.engine = sched::Engine::Vm;
    sched::Executor vm(info.make(), vopt);

    ASSERT_EQ(tree.engine(), sched::Engine::Tree);
    ASSERT_EQ(vm.engine(), sched::Engine::Vm);

    const auto tout = tree.run_steady(2);
    const auto vout = vm.run_steady(2);
    expect_same_doubles(tout, vout, info.name + " output");

    const auto& g = tree.graph();
    ASSERT_EQ(g.actors.size(), vm.graph().actors.size());
    EXPECT_EQ(tree.firings(), vm.firings()) << info.name;
    for (std::size_t a = 0; a < g.actors.size(); ++a) {
      expect_same_counts(tree.actor_ops()[a], vm.actor_ops()[a],
                         info.name + "/" + g.actors[a].name);
      if (g.actors[a].kind == runtime::FlatActor::Kind::Filter) {
        expect_same_state(tree.filter_state(static_cast<int>(a)),
                          vm.filter_state(static_cast<int>(a)),
                          info.name + "/" + g.actors[a].name);
      }
    }
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const int ei = static_cast<int>(e);
      EXPECT_EQ(tree.channel(ei).total_pushed(), vm.channel(ei).total_pushed())
          << info.name << " edge " << e;
      EXPECT_EQ(tree.channel(ei).total_popped(), vm.channel(ei).total_popped())
          << info.name << " edge " << e;
    }
  }
}

// The point of the engine: the hot filters of the evaluation apps must
// actually run on the typed VM, not silently fall back.
TEST(VmDifferential, EvaluationAppFiltersCompile) {
  for (const std::string name : {"FIR", "Vocoder", "FMRadio", "FilterBank"}) {
    SCOPED_TRACE(name);
    sched::ExecOptions opt;
    opt.engine = sched::Engine::Vm;
    opt.typed = sched::TypedMode::On;
    sched::Executor ex(apps::make_app(name), opt);
    int compiled = 0, filters = 0;
    const auto& g = ex.graph();
    for (std::size_t a = 0; a < g.actors.size(); ++a) {
      if (g.actors[a].kind != runtime::FlatActor::Kind::Filter) continue;
      ++filters;
      if (ex.actor_uses_typed(static_cast<int>(a))) ++compiled;
    }
    ASSERT_GT(filters, 0);
    EXPECT_EQ(compiled, filters) << name << ": some filters fell back";
  }
}

// ---- randomized work functions ----------------------------------------------

// Grammar-directed random AST generator over the compiled subset: state
// scalars (one float, one int), a state array, invocation locals, peeks,
// arithmetic and comparisons, conditionals and for loops.  Division and
// shifts are excluded so no input can throw or hit UB; everything else is
// fair game.  Fixed seeds keep failures reproducible.
class AstGen {
 public:
  // `typed_stores` casts every value stored to state to the slot's declared
  // type (ks int, fs and arr double) and every local and ?: arm to double,
  // the way a statically typed source language would; without it, values
  // keep their own tags.
  AstGen(std::uint32_t seed, bool typed_stores)
      : g_(seed), typed_stores_(typed_stores) {}

  ir::FilterSpec make_spec(int idx) {
    const int peekw = 3, popn = 2, pushn = 2;
    auto b = filter("rand" + std::to_string(idx))
                 .rates(peekw, popn, pushn)
                 .scalar("fs", Value{0.5})
                 .iscalar("ks", 3)
                 .array("arr", 4);
    std::vector<ir::StmtP> body;
    locals_.clear();
    const int stmts = irange(2, 5);
    for (int i = 0; i < stmts; ++i) body.push_back(rand_stmt(2));
    for (int i = 0; i < pushn; ++i) body.push_back(push_(E(rand_expr(3))));
    body.push_back(discard(popn));
    return b.work(std::move(body)).build();
  }

 private:
  int irange(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(g_);
  }
  double dval() {
    return std::uniform_real_distribution<double>(-2.0, 2.0)(g_);
  }

  ir::ExprP rand_expr(int depth) {
    if (depth <= 0 || irange(0, 3) == 0) {
      switch (irange(0, 5)) {
        case 0: return ir::iconst(irange(-3, 7));
        case 1: return ir::fconst(dval());
        case 2: return ir::peek(ir::iconst(irange(0, 2)));
        case 3: return ir::var(irange(0, 1) ? "fs" : "ks");
        case 4: return ir::aref("arr", ir::iconst(irange(0, 3)));
        default:
          if (!locals_.empty()) return ir::var(locals_[static_cast<std::size_t>(
              irange(0, static_cast<int>(locals_.size()) - 1))]);
          return ir::iconst(irange(0, 9));
      }
    }
    switch (irange(0, 9)) {
      case 0: return ir::bin(ir::BinOp::Add, rand_expr(depth - 1), rand_expr(depth - 1));
      case 1: return ir::bin(ir::BinOp::Sub, rand_expr(depth - 1), rand_expr(depth - 1));
      case 2: return ir::bin(ir::BinOp::Mul, rand_expr(depth - 1), rand_expr(depth - 1));
      case 3: return ir::bin(ir::BinOp::Min, rand_expr(depth - 1), rand_expr(depth - 1));
      case 4: return ir::bin(ir::BinOp::Max, rand_expr(depth - 1), rand_expr(depth - 1));
      case 5: return ir::bin(ir::BinOp::Lt, rand_expr(depth - 1), rand_expr(depth - 1));
      case 6: return ir::bin(irange(0, 1) ? ir::BinOp::LAnd : ir::BinOp::LOr,
                             rand_expr(depth - 1), rand_expr(depth - 1));
      case 7: {
        const auto u = std::vector<ir::UnOp>{ir::UnOp::Neg, ir::UnOp::Abs,
                                             ir::UnOp::Sin, ir::UnOp::Cos,
                                             ir::UnOp::Floor, ir::UnOp::ToInt,
                                             ir::UnOp::ToFloat};
        return ir::un(u[static_cast<std::size_t>(irange(0, 6))], rand_expr(depth - 1));
      }
      case 8:
        return ir::cond(rand_expr(depth - 1),
                        stored(rand_expr(depth - 1), false),
                        stored(rand_expr(depth - 1), false));
      default: return ir::bin(ir::BinOp::Add, rand_expr(depth - 1),
                              rand_expr(depth - 1));
    }
  }

  ir::StmtP rand_stmt(int depth) {
    switch (irange(0, depth > 0 ? 5 : 3)) {
      case 0: {
        const std::string name = "t" + std::to_string(locals_.size());
        auto s = ir::assign(name, stored(rand_expr(2), false));
        locals_.push_back(name);
        return s;
      }
      case 1: {
        const bool to_fs = irange(0, 1) != 0;
        return ir::assign(to_fs ? "fs" : "ks", stored(rand_expr(2), !to_fs));
      }
      case 2:
        return ir::array_assign("arr", ir::iconst(irange(0, 3)),
                                stored(rand_expr(2), false));
      case 3:
        // Loop over the state array; loop bounds are part of the compiled
        // subset's happy path, the body mutates state each iteration.
        return for_("i", 0, irange(1, 4),
                    ir::array_assign("arr", ir::var("i"),
                                     ir::bin(ir::BinOp::Add,
                                             ir::aref("arr", ir::var("i")),
                                             rand_expr(1))));
      case 4: {
        // If with a then-only branch: anything assigned inside is
        // deliberately NOT read afterwards (locals_ snapshot restored).
        const auto snap = locals_.size();
        auto s = ir::if_then(rand_expr(2), rand_stmt(depth - 1));
        locals_.resize(snap);
        return s;
      }
      default: {
        const auto snap = locals_.size();
        auto s = ir::if_else(rand_expr(2), rand_stmt(depth - 1),
                             rand_stmt(depth - 1));
        locals_.resize(snap);
        return s;
      }
    }
  }

  ir::ExprP stored(ir::ExprP e, bool to_int) const {
    if (!typed_stores_) return e;
    return ir::un(to_int ? ir::UnOp::ToInt : ir::UnOp::ToFloat, std::move(e));
  }

  std::mt19937 g_;
  bool typed_stores_;
  std::vector<std::string> locals_;
};

TEST(VmDifferential, RandomizedWorkFunctions) {
  // Seeds 1..40 store values with their own tags, which typeflow mostly
  // refuses (those pin the compiler and the tree fallback); seeds 41..80
  // store typed values, the shape the typed lowering exists for.
  int compiled = 0, typed = 0;
  for (std::uint32_t seed = 1; seed <= 80; ++seed) {
    AstGen gen(seed * 7919, seed > 40);
    const ir::FilterSpec spec = gen.make_spec(static_cast<int>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));

    std::string reason;
    auto prog = runtime::compile_filter(spec, &reason);
    if (!prog) continue;  // conservatively rejected shapes fall back; fine
    ++compiled;

    FilterState tst = Interp::init_state(spec);
    FilterState vst = Interp::init_state(spec);
    // Where typeflow refuses (e.g. an int scalar stored with a double), the
    // executors run the filter on the tree: compare tree against tree.
    auto tp = runtime::typed_compile(spec, vst, &reason);
    std::unique_ptr<runtime::TypedBound> bound;
    if (tp) {
      ++typed;
      bound = std::make_unique<runtime::TypedBound>(tp, vst);
    }

    Channel tin, vin, tout, vout;
    std::mt19937 feed(seed);
    std::uniform_real_distribution<double> d(-4.0, 4.0);
    for (int i = 0; i < 64; ++i) {
      const double x = d(feed);
      tin.push_item(x);
      vin.push_item(x);
    }

    OpCounts tc, vc;
    for (int fire = 0; fire < 20; ++fire) {
      Interp::run_work(spec, tst, tin, tout, &tc);
      if (bound) {
        bound->run_work(vin, vout, &vc);
      } else {
        Interp::run_work(spec, vst, vin, vout, &vc);
      }
    }
    expect_same_counts(tc, vc, spec.name);
    expect_same_state(tst, vst, spec.name + " final");
    std::vector<double> to, vo;
    while (!tout.empty()) to.push_back(tout.pop_item());
    while (!vout.empty()) vo.push_back(vout.pop_item());
    expect_same_doubles(to, vo, spec.name + " output");
    EXPECT_EQ(tin.total_popped(), vin.total_popped());
  }
  // The generator stays inside the compiled subset by construction; if the
  // compiler starts rejecting most of them, the subset regressed.  Typed
  // lowering must accept a substantial share too, or this differential
  // degenerates into comparing the tree with itself.
  std::printf("[ randomized ] %d/80 compiled, %d typed\n", compiled, typed);
  EXPECT_GE(compiled, 60);
  EXPECT_GE(typed, 30);
}

// ---- engine parity corner cases ---------------------------------------------

// Messages: a teleport sender is outside the bytecode subset by name, so
// under Engine::Vm it runs on the tree and its messages (arguments, latency
// bounds, ordering) must match Engine::Tree's bit for bit.
TEST(VmDifferential, SendMessagesMatch) {
  const auto sender = [] {
    return filter("sender")
        .rates(1, 1, 1)
        .iscalar("n", 0)
        .work({let("x", pop_()),
               ir::send("portal", "setGain", {(v("x") * c(2.0)).e, v("n").e},
                        1, 3),
               let("n", v("n") + 1), push_(v("x"))});
  };
  std::string reason;
  EXPECT_EQ(runtime::compile_filter(sender().build(), &reason), nullptr);
  EXPECT_EQ(reason, "teleport-send");

  const auto run = [&](sched::Engine engine, std::vector<SentMessage>* msgs) {
    auto src = filter("src").rates(0, 0, 1).scalar("t", Value{0.25})
                   .work({let("t", v("t") + c(1.0)), push_(v("t"))}).node();
    auto snk = filter("snk").rates(1, 1, 0).scalar("sum", Value{0.0})
                   .work({let("sum", v("sum") + pop_())}).node();
    sched::ExecOptions opt;
    opt.engine = engine;
    opt.typed = sched::TypedMode::On;
    opt.message_sink = [msgs](const SentMessage& m) { msgs->push_back(m); };
    sched::Executor ex(ir::make_pipeline("p", {src, sender().node(), snk}), opt);
    const auto& g = ex.graph();
    for (std::size_t a = 0; a < g.actors.size(); ++a) {
      if (g.actors[a].name.find("sender") == std::string::npos) continue;
      EXPECT_FALSE(ex.actor_uses_typed(static_cast<int>(a)));
      if (engine == sched::Engine::Vm) {
        EXPECT_EQ(ex.typed_refusal(static_cast<int>(a)), "teleport-send");
      }
    }
    ex.run_steady(5);
  };
  std::vector<SentMessage> tmsg, vmsg;
  run(sched::Engine::Tree, &tmsg);
  run(sched::Engine::Vm, &vmsg);
  ASSERT_FALSE(tmsg.empty());
  ASSERT_EQ(tmsg.size(), vmsg.size());
  for (std::size_t i = 0; i < tmsg.size(); ++i) {
    EXPECT_EQ(tmsg[i].portal, vmsg[i].portal);
    EXPECT_EQ(tmsg[i].method, vmsg[i].method);
    EXPECT_EQ(tmsg[i].lat_min, vmsg[i].lat_min);
    EXPECT_EQ(tmsg[i].lat_max, vmsg[i].lat_max);
    ASSERT_EQ(tmsg[i].args.size(), vmsg[i].args.size());
    for (std::size_t j = 0; j < tmsg[i].args.size(); ++j) {
      expect_same_value(tmsg[i].args[j], vmsg[i].args[j], "msg arg");
    }
  }
}

// A handler filter is refused by typed lowering (a handler may retag state
// between firings) and runs on the tree; a handler delivered between
// firings mutates the state the next firing reads.
TEST(VmDifferential, HandlerStateSharedWithVm) {
  auto src = filter("src").rates(0, 0, 1).work({push_(c(2.0))}).node();
  auto gainer = filter("gainer")
                    .rates(1, 1, 1)
                    .scalar("gain", Value{1.0})
                    .work({push_(pop_() * v("gain"))})
                    .handler("setGain", {"g"}, let("gain", v("g")))
                    .node();
  sched::ExecOptions opt;
  opt.engine = sched::Engine::Vm;
  opt.typed = sched::TypedMode::On;
  sched::Executor ex(ir::make_pipeline("p", {src, gainer}), opt);
  int g = -1;
  for (std::size_t a = 0; a < ex.graph().actors.size(); ++a) {
    if (ex.graph().actors[a].name.find("gainer") != std::string::npos) {
      g = static_cast<int>(a);
    }
  }
  ASSERT_GE(g, 0);
  EXPECT_FALSE(ex.actor_uses_typed(g));
  EXPECT_EQ(ex.typed_refusal(g), "has-handlers");

  std::vector<double> out = ex.run_steady(1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 2.0);
  ex.run_handler(g, "setGain", {Value{10.0}});
  out = ex.run_steady(1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 20.0);
}

// Out-of-subset work functions (here: a read of a possibly-unassigned
// local) must be rejected by the compiler with a reason, and the executor
// must transparently run them on the tree interpreter.
TEST(VmDifferential, FallbackForUncompilableFilter) {
  auto fb = filter("partial")
                .rates(1, 1, 1)
                .work({let("x", pop_()),
                       if_(v("x") > c(0.0), let("y", v("x") * c(2.0))),
                       // `y` is unassigned when x <= 0: the tree throws at
                       // runtime iff that path runs, so the compiler must
                       // refuse rather than guess.
                       push_(sel(v("x") > c(0.0), v("y"), v("x")))});
  std::string reason;
  EXPECT_EQ(runtime::compile_filter(fb.build(), &reason), nullptr);
  EXPECT_FALSE(reason.empty());

  auto make = [&] {
    auto src = filter("src").rates(0, 0, 1).iscalar("n", 0)
                   .work({let("n", v("n") + 1), push_(v("n") - 3)}).node();
    auto snk = filter("snk").rates(1, 1, 0).scalar("sum", Value{0.0})
                   .work({let("sum", v("sum") + pop_())}).node();
    return ir::make_pipeline("p", {src, fb.node(), snk});
  };
  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  vopt.typed = sched::TypedMode::On;
  sched::Executor vm(make(), vopt);
  const auto& g = vm.graph();
  bool found = false;
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    if (g.actors[a].name.find("partial") == std::string::npos) continue;
    found = true;
    EXPECT_FALSE(vm.actor_uses_typed(static_cast<int>(a)));
    EXPECT_EQ(vm.typed_refusal(static_cast<int>(a)).rfind("no-bytecode:", 0), 0u)
        << vm.typed_refusal(static_cast<int>(a));
  }
  ASSERT_TRUE(found);

  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(make(), topt);
  tree.run_steady(4);
  vm.run_steady(4);
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    if (g.actors[a].kind != runtime::FlatActor::Kind::Filter) continue;
    expect_same_state(tree.filter_state(static_cast<int>(a)),
                      vm.filter_state(static_cast<int>(a)), g.actors[a].name);
  }
}

// Debug-mode channel checking must fire identically under the typed VM, with
// the same diagnostic.
TEST(VmDifferential, DebugChannelChecksUnderVm) {
  // peek(5) with a declared window of max(2, 1) = 2.
  auto spec = filter("overpeek")
                  .rates(2, 1, 1)
                  .work({push_(peek_(5)), discard(1)})
                  .build();
  runtime::set_debug_channel_checks(true);
  struct Restore {
    ~Restore() { runtime::set_debug_channel_checks(false); }
  } restore;

  Channel tin, vin, tout, vout;
  for (int i = 0; i < 8; ++i) {
    tin.push_item(i);
    vin.push_item(i);
  }
  FilterState tst = Interp::init_state(spec);
  FilterState vst = Interp::init_state(spec);
  auto tp = runtime::typed_compile(spec, vst);
  ASSERT_NE(tp, nullptr);
  runtime::TypedBound bound(tp, vst);
  std::string terr, verr;
  try {
    Interp::run_work(spec, tst, tin, tout, nullptr);
  } catch (const std::runtime_error& e) {
    terr = e.what();
  }
  try {
    bound.run_work(vin, vout, nullptr);
  } catch (const std::runtime_error& e) {
    verr = e.what();
  }
  ASSERT_FALSE(terr.empty());
  EXPECT_EQ(terr, verr);
}

// Init runs once, on the tree interpreter, under every engine: right after
// construction each filter's state must equal Interp::init_state exactly
// (tags included -- they seed the typed state classes).
TEST(VmDifferential, CompiledInitMatchesTree) {
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    for (const auto engine : {sched::Engine::Vm, sched::Engine::Fused}) {
      sched::ExecOptions opt;
      opt.engine = engine;
      opt.typed = sched::TypedMode::On;
      sched::Executor ex(info.make(), opt);
      const auto& g = ex.graph();
      for (std::size_t a = 0; a < g.actors.size(); ++a) {
        if (g.actors[a].kind != runtime::FlatActor::Kind::Filter) continue;
        expect_same_state(Interp::init_state(g.actors[a].node->filter),
                          ex.filter_state(static_cast<int>(a)),
                          info.name + "/" + g.actors[a].name);
      }
    }
  }
}

// Disassembly is for humans; just pin that it mentions the channel ops so
// the docs' examples stay truthful.
TEST(VmDifferential, DisassembleSmoke) {
  auto spec = filter("fir4")
                  .rates(4, 1, 1)
                  .array_init("h", {Value{0.1}, Value{0.2}, Value{0.3}, Value{0.4}})
                  .work({let("sum", c(0.0)),
                         for_("i", 0, 4,
                              let("sum", v("sum") + peek_(v("i")) * at("h", v("i")))),
                         push_(v("sum")), discard(1)})
                  .build();
  auto prog = runtime::compile_filter(spec);
  ASSERT_NE(prog, nullptr);
  const std::string dis = runtime::disassemble(prog->work);
  EXPECT_NE(dis.find("peek"), std::string::npos);
  EXPECT_NE(dis.find("push"), std::string::npos);
  EXPECT_NE(dis.find("halt"), std::string::npos);
}

// ---- per-actor mac-loop -----------------------------------------------------
//
// typed_compile collapses `for (i) acc = acc + peek(i) [* h[i]]` into the
// fused trace's mac-loop superinstruction (fused.h), run by TypedBound on the
// shared checked kernel (mac_loop.h).  Outputs, OpCounts, error text and the
// counts at the point of an error must all match the tree.

// One mac-loop (or sum-loop) over [lo, hi) with step `step`, a declared
// window of `peek`, and `ncoef` double coefficients.
ir::FilterSpec mac_filter(int peek, int lo, int hi, int step, bool coef,
                          int ncoef = 8) {
  std::vector<Value> h;
  for (int i = 0; i < ncoef; ++i) h.emplace_back(0.25 * i - 0.6);
  const E term = coef ? peek_(v("i")) * at("h", v("i")) : peek_(v("i"));
  return filter("mac")
      .rates(peek, 1, 1)
      .array_init("h", h)
      .work({let("acc", c(0.0)),
             ir::for_loop_step("i", ir::iconst(lo), ir::iconst(hi),
                               ir::iconst(step), let("acc", v("acc") + term)),
             push_(v("acc")), discard(1)})
      .build();
}

// Presents the input shifted by `offset` items, as a peeking-fission
// replica sees the duplicated stream (parallel/transforms.cc OffsetIn).
class ShiftedIn final : public ir::InTape {
 public:
  ShiftedIn(ir::InTape& in, int offset) : in_(in), offset_(offset) {}
  double peek_item(int i) override { return in_.peek_item(offset_ + pops_ + i); }
  double pop_item() override { return in_.peek_item(offset_ + pops_++); }

 private:
  ir::InTape& in_;
  int offset_;
  int pops_{0};
};

// Forwards to a Channel and counts item-by-item peeks.  `windowed` says
// whether it also exposes the channel's ring window, which is what lets
// the typed VM's mac-loop take its raw loop.
class CountingIn final : public ir::InTape {
 public:
  CountingIn(Channel& ch, bool windowed) : ch_(ch), windowed_(windowed) {}
  double peek_item(int i) override {
    ++peeks;
    return ch_.peek_item(i);
  }
  double pop_item() override { return ch_.pop_item(); }
  void pop_many(int n) override { ch_.pop_many(n); }
  bool window(int n, ir::TapeWindow* w) override {
    return windowed_ && ch_.window(n, w);
  }
  std::int64_t peeks{0};

 private:
  Channel& ch_;
  bool windowed_;
};

struct MacRun {
  std::vector<double> out;
  OpCounts counts;
  std::string error;
  std::int64_t peeks{0};  // item-by-item peeks (offset < 0 only)
};

// Fire `spec` up to `firings` times over `items` input items on the tree or
// (typed) on the per-actor VM, stopping at the first error.  offset >= 0
// runs every firing through a ShiftedIn and then pops one item from the
// underlying channel, the way a fission replica does; otherwise firings
// read the channel through a CountingIn (windowed or not).
MacRun run_mac(const ir::FilterSpec& spec, bool typed, int items, int firings,
               int offset = -1, bool windowed = true) {
  Channel in, out;
  for (int i = 0; i < items; ++i) in.push_item(0.37 * i - 1.0);
  FilterState st = Interp::init_state(spec);
  std::unique_ptr<runtime::TypedBound> bound;
  if (typed) {
    auto prog = runtime::typed_compile(spec, st);
    if (prog == nullptr) throw std::logic_error("typed_compile refused");
    bound = std::make_unique<runtime::TypedBound>(prog, st);
  }
  MacRun r;
  CountingIn counting(in, windowed);
  try {
    for (int t = 0; t < firings; ++t) {
      ShiftedIn shifted(in, offset);
      ir::InTape& tape =
          offset >= 0 ? static_cast<ir::InTape&>(shifted) : counting;
      if (bound) {
        bound->run_work(tape, out, &r.counts);
      } else {
        Interp::run_work(spec, st, tape, out, &r.counts);
      }
      if (offset >= 0) in.pop_many(1);
    }
  } catch (const std::runtime_error& e) {
    r.error = e.what();
  }
  r.peeks = counting.peeks;
  while (!out.empty()) r.out.push_back(out.pop_item());
  return r;
}

void expect_mac_matches_tree(const ir::FilterSpec& spec, int items, int firings,
                             const std::string& what, int offset = -1,
                             bool windowed = true) {
  const MacRun t = run_mac(spec, false, items, firings, offset);
  const MacRun v = run_mac(spec, true, items, firings, offset, windowed);
  expect_same_doubles(t.out, v.out, what);
  expect_same_counts(t.counts, v.counts, what);
  EXPECT_EQ(t.error, v.error) << what;
}

TEST(VmMacLoop, CollapsesAndMatchesTree) {
  const struct {
    const char* what;
    ir::FilterSpec spec;
  } cases[] = {
      {"mac", mac_filter(8, 0, 8, 1, true)},
      {"sum", mac_filter(8, 0, 8, 1, false)},
      {"strided mac", mac_filter(8, 1, 8, 3, true)},
      {"zero-trip", mac_filter(8, 5, 5, 1, true)},
  };
  for (const bool debug : {false, true}) {
    runtime::set_debug_channel_checks(debug);
    for (const auto& c : cases) {
      const std::string what =
          std::string(c.what) + (debug ? " (debug checks)" : "");
      FilterState st = Interp::init_state(c.spec);
      const auto prog = runtime::typed_compile(c.spec, st);
      ASSERT_NE(prog, nullptr) << what;
      EXPECT_EQ(prog->macs.size(), 1u) << what;
      expect_mac_matches_tree(c.spec, 40, 30, what);
    }
  }
  runtime::set_debug_channel_checks(false);
}

// Both paths: over a windowed tape every clear firing takes the raw loop and
// the failing one falls to the checked kernel; over a windowless tape every
// firing is checked.  Either way the error and the partial counts match.
TEST(VmMacLoop, ErrorsMatchTreeWithPartialCounts) {
  struct Restore {
    ~Restore() { runtime::set_debug_channel_checks(false); }
  } restore;
  for (const bool windowed : {true, false}) {
    const std::string tape = windowed ? " (windowed)" : " (windowless)";
    // Debug window check: the loop runs to 6 over a declared window of 4.
    runtime::set_debug_channel_checks(true);
    const MacRun dbg =
        run_mac(mac_filter(4, 0, 6, 1, true), true, 40, 3, -1, windowed);
    EXPECT_EQ(dbg.error,
              "peek out of bounds in 'mac': peek(4) after 0 pop(s) exceeds the "
              "declared window of 4");
    expect_mac_matches_tree(mac_filter(4, 0, 6, 1, true), 40, 3,
                            "debug window" + tape, -1, windowed);
    runtime::set_debug_channel_checks(false);
    // The channel runs dry inside the loop of the third firing.
    const MacRun dry =
        run_mac(mac_filter(8, 0, 8, 1, true), true, 9, 3, -1, windowed);
    EXPECT_EQ(dry.error, "peek(7) beyond channel contents (7)");
    expect_mac_matches_tree(mac_filter(8, 0, 8, 1, true), 9, 3,
                            "channel underflow" + tape, -1, windowed);
    // The coefficient array is shorter than the loop.
    const MacRun arr =
        run_mac(mac_filter(8, 0, 8, 1, true, 5), true, 40, 3, -1, windowed);
    EXPECT_EQ(arr.error, "array index out of bounds: h[5]");
    expect_mac_matches_tree(mac_filter(8, 0, 8, 1, true, 5), 40, 3,
                            "coefficient bounds" + tape, -1, windowed);
    // ... by exactly one: the last term reads past the end.
    const MacRun edge =
        run_mac(mac_filter(8, 0, 8, 1, true, 7), true, 40, 3, -1, windowed);
    EXPECT_EQ(edge.error, "array index out of bounds: h[7]");
    expect_mac_matches_tree(mac_filter(8, 0, 8, 1, true, 7), 40, 3,
                            "last coefficient" + tape, -1, windowed);
  }
}

// A ring-backed tape hands the whole range over as one window: the typed
// VM's mac-loop then peeks nothing item by item, and a tape without a
// window is peeked once per term, with the same outputs and counts.
TEST(VmMacLoop, RingWindowTakesTheRawLoop) {
  for (const bool debug : {false, true}) {
    runtime::set_debug_channel_checks(debug);
    for (const bool coef : {true, false}) {
      const auto spec = mac_filter(8, 1, 8, 2, coef);
      const std::string what = std::string(coef ? "mac" : "sum") +
                               (debug ? " (debug checks)" : "");
      EXPECT_EQ(run_mac(spec, true, 40, 30, -1, true).peeks, 0) << what;
      EXPECT_EQ(run_mac(spec, true, 40, 30, -1, false).peeks, 30 * 4) << what;
      expect_mac_matches_tree(spec, 40, 30, what, -1, true);
      expect_mac_matches_tree(spec, 40, 30, what, -1, false);
    }
  }
  runtime::set_debug_channel_checks(false);
}

TEST(VmMacLoop, ReplicaThroughOffsetTapeMatchesTree) {
  for (const int offset : {0, 2, 3}) {
    expect_mac_matches_tree(mac_filter(6, 0, 6, 1, true), 60, 40,
                            "offset " + std::to_string(offset), offset);
    expect_mac_matches_tree(mac_filter(6, 1, 6, 2, false), 60, 40,
                            "sum offset " + std::to_string(offset), offset);
  }
}

TEST(VmMacLoop, IntCoefficientsStayUnrolled) {
  // The raw kernel needs double coefficients; an int array keeps the loop
  // as bytecode instead of refusing the filter.
  auto spec = filter("imac")
                  .rates(4, 1, 1)
                  .array_init("h", {Value{1}, Value{-2}, Value{3}, Value{4}})
                  .work({let("acc", c(0.0)),
                         for_("i", 0, 4,
                              let("acc", v("acc") + peek_(v("i")) * at("h", v("i")))),
                         push_(v("acc")), discard(1)})
                  .build();
  FilterState st = Interp::init_state(spec);
  std::string why;
  const auto prog = runtime::typed_compile(spec, st, &why);
  ASSERT_NE(prog, nullptr) << why;
  EXPECT_TRUE(prog->macs.empty());
  expect_mac_matches_tree(spec, 30, 20, "int coefficients");
}

// ---- ring-buffer channel ----------------------------------------------------

TEST(RingChannel, FifoAcrossWraparound) {
  Channel ch;
  // Interleave pushes and pops so head_ walks around the ring repeatedly.
  std::int64_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) ch.push_item(static_cast<double>(next_push++));
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(ch.pop_item(), static_cast<double>(next_pop++));
    }
    // Peeks must see the live window in order.
    for (std::size_t off = 0; off < ch.size(); ++off) {
      ASSERT_EQ(ch.peek_item(static_cast<int>(off)),
                static_cast<double>(next_pop + static_cast<std::int64_t>(off)));
    }
  }
  EXPECT_EQ(ch.total_pushed(), next_push);
  EXPECT_EQ(ch.total_popped(), next_pop);
  EXPECT_EQ(ch.size(), static_cast<std::size_t>(next_push - next_pop));
  // Power-of-two capacity invariant.
  ASSERT_GT(ch.capacity(), 0u);
  EXPECT_EQ(ch.capacity() & (ch.capacity() - 1), 0u);
}

TEST(RingChannel, PushManyWrapsAndCounts) {
  Channel ch;
  // Misalign head first so the bulk write must split into two segments.
  for (int i = 0; i < 20; ++i) ch.push_item(i);
  for (int i = 0; i < 13; ++i) ch.pop_item();
  std::vector<double> bulk;
  for (int i = 0; i < 100; ++i) bulk.push_back(1000.0 + i);
  ch.push_many(bulk);
  EXPECT_EQ(ch.size(), 107u);
  EXPECT_EQ(ch.total_pushed(), 120);
  for (int i = 13; i < 20; ++i) ASSERT_EQ(ch.pop_item(), i);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(ch.pop_item(), 1000.0 + i);
  EXPECT_TRUE(ch.empty());
  EXPECT_THROW(ch.pop_item(), std::runtime_error);
}

TEST(RingChannel, WindowShowsLiveItemsAcrossTheWrap) {
  Channel ch;
  for (int i = 0; i < 14; ++i) ch.push_item(static_cast<double>(i));
  ch.pop_many(12);
  for (int i = 14; i < 28; ++i) ch.push_item(static_cast<double>(i));
  ir::TapeWindow w;
  ASSERT_TRUE(ch.window(16, &w));
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(w[k], static_cast<double>(12 + k)) << k;
  }
  EXPECT_FALSE(ch.window(17, &w));
  EXPECT_FALSE(ch.window(-1, &w));
}

TEST(RingChannel, PeekBeyondContentsThrows) {
  Channel ch;
  ch.push_item(1.0);
  EXPECT_THROW(ch.peek_item(1), std::runtime_error);
  EXPECT_THROW(ch.peek_item(-1), std::runtime_error);
  EXPECT_EQ(ch.peek_item(0), 1.0);
}

TEST(RingChannel, HighWaterTracksPeakOccupancy) {
  Channel ch;
  for (int i = 0; i < 10; ++i) ch.push_item(i);
  ch.note_high_water();
  for (int i = 0; i < 9; ++i) ch.pop_item();
  ch.note_high_water();
  EXPECT_EQ(ch.high_water(), 10);
}

TEST(RingChannel, PopManyBulkDiscard) {
  Channel ch;
  for (int i = 0; i < 30; ++i) ch.push_item(static_cast<double>(i));
  ch.pop_many(7);  // O(1) head advance
  EXPECT_EQ(ch.total_popped(), 7);
  EXPECT_EQ(ch.size(), 23u);
  ASSERT_EQ(ch.pop_item(), 7.0);
  ch.pop_many(0);   // no-ops
  ch.pop_many(-3);
  EXPECT_EQ(ch.total_popped(), 8);
  EXPECT_THROW(ch.pop_many(100), std::runtime_error);
  EXPECT_EQ(ch.size(), 22u);  // failed bulk pop consumed nothing
  ch.pop_many(22);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.total_popped(), 30);
}

// Coprime push/pop rates sweep the wrap point through every alignment, the
// way an up/down-sampler pair drives a channel across many steady states.
// Bulk pops and bursty pushes keep crossing segment boundaries; growth at
// awkward head positions must re-linearize without losing order.
TEST(RingChannel, CoprimeRatesManySteadyStates) {
  Channel ch;
  std::int64_t next_push = 0, next_pop = 0;
  std::size_t peak = 0;
  for (int round = 0; round < 5000; ++round) {
    // Occasional oversized bursts force capacity growth while head_ sits at
    // an awkward offset.
    const int pushes = (round % 997 == 17) ? 611 : 7;
    std::vector<double> burst;
    burst.reserve(pushes);
    for (int i = 0; i < pushes; ++i) {
      burst.push_back(static_cast<double>(next_push++));
    }
    ch.push_many(burst);
    ch.note_high_water();
    peak = std::max(peak, ch.size());
    while (ch.size() >= 5) {
      // Verify the head of the live window, then discard the 5-item stride
      // in bulk (decimation idiom: peek what you need, pop_many the rest).
      ASSERT_EQ(ch.peek_item(0), static_cast<double>(next_pop));
      ASSERT_EQ(ch.peek_item(4), static_cast<double>(next_pop + 4));
      ch.pop_many(5);
      next_pop += 5;
    }
  }
  while (!ch.empty()) {
    ASSERT_EQ(ch.pop_item(), static_cast<double>(next_pop++));
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(ch.total_pushed(), next_push);
  EXPECT_EQ(ch.total_popped(), next_pop);
  EXPECT_EQ(ch.high_water(), peak);
  EXPECT_EQ(ch.capacity() & (ch.capacity() - 1), 0u);
}

}  // namespace
}  // namespace sit
