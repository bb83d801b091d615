// Tests for the pass-pipeline semantic verifier (analysis/verify.h) and the
// static channel-bound analysis (analysis/bounds_chan.h).
//
//   * Every built-in app verifies clean, and hand-corrupted flat graphs are
//     rejected with the right stable diagnostic code (V-STRUCT, V-SJ,
//     V-ORDER, V-SCHED).
//   * Seeded mutation passes corrupt the IR mid-pipeline (wrong rate,
//     duplicated state); PassOptions::verify_each must pin the *offending
//     pass by name* in the thrown message and leave the coded diagnostic in
//     the context.
//   * Property: the static per-edge bounds dominate the observed high-water
//     occupancy on every app x optimization level x thread count, and match
//     it exactly on the linear chain apps under the in-order discipline.
//   * The analysis gate, the verifier and the scheduler share one SDF solver:
//     on a table of broken graphs (and one valid loop) they reject together.
//   * SIT_VERIFY parsing and VerifyMode resolution.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/bounds_chan.h"
#include "analysis/verify.h"
#include "apps/apps.h"
#include "apps/common.h"
#include "ir/dsl.h"
#include "obs/metrics.h"
#include "opt/compile.h"
#include "opt/pass_manager.h"
#include "runtime/flatgraph.h"
#include "sched/envopts.h"
#include "sched/schedule.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace sit::ir::dsl;
using analysis::Diagnostic;

bool has_code(const std::vector<Diagnostic>& ds, const std::string& code) {
  for (const auto& d : ds) {
    if (d.code == code && d.is_error()) return true;
  }
  return false;
}

// Drop the final sink so the program output edge is observable (mirrors
// test_pipeline_diff.cc).
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

// ---- the verifier accepts every shipped program -----------------------------

TEST(Verify, AllAppsVerifyClean) {
  for (const auto& a : apps::all_apps()) {
    const auto ds = analysis::verify_graph(a.make());
    EXPECT_FALSE(analysis::has_errors(ds))
        << a.name << ":\n" << analysis::render(ds);
  }
}

// ---- hand-corrupted flat graphs ---------------------------------------------

TEST(Verify, CorruptEdgeEndpointIsStructError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FIR"));
  g.edges[0].dst = 99;  // no such actor
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-STRUCT")) << analysis::render(ds);
}

TEST(Verify, NegativeRateIsStructError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FIR"));
  for (auto& a : g.actors) {
    if (a.is_filter() && !a.in_rate.empty()) {
      a.in_rate[0] = -1;
      break;
    }
  }
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-STRUCT")) << analysis::render(ds);
}

TEST(Verify, DuplicateSplitterBranchWeightIsSplitjoinError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FilterBank"));
  bool corrupted = false;
  for (auto& a : g.actors) {
    if (a.kind == runtime::FlatActor::Kind::Splitter &&
        a.sj == ir::SJKind::Duplicate) {
      a.out_rate[0] = 2;  // duplicate branches must carry exactly one
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "FilterBank has no duplicate splitter?";
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-SJ")) << analysis::render(ds);
}

TEST(Verify, CyclicActorOrderIsOrderError) {
  // Two 1->1 filters feeding each other with no initial items: structurally
  // well-formed and rate-consistent, but no forward topological order (and
  // no schedule) exists.
  const ir::NodeP na =
      filter("a").rates(1, 1, 1).work(seq({push_(pop_())})).node();
  const ir::NodeP nb =
      filter("b").rates(1, 1, 1).work(seq({push_(pop_())})).node();
  runtime::FlatGraph g;
  runtime::FlatActor a;
  a.kind = runtime::FlatActor::Kind::Filter;
  a.name = "a";
  a.node = na.get();
  a.in_edges = {1};
  a.out_edges = {0};
  a.in_rate = {1};
  a.out_rate = {1};
  runtime::FlatActor b = a;
  b.name = "b";
  b.node = nb.get();
  b.in_edges = {0};
  b.out_edges = {1};
  g.actors = {a, b};
  runtime::FlatEdge e0;
  e0.src = 0;
  e0.dst = 1;
  runtime::FlatEdge e1;
  e1.src = 1;
  e1.dst = 0;
  g.edges = {e0, e1};
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-ORDER")) << analysis::render(ds);
}

TEST(Verify, StarvedFeedbackLoopIsSchedError) {
  // Feedback loop with delay 0: rates solve, but the joiner needs a back-edge
  // item before anything was ever produced -- initialization cannot start.
  auto loop = ir::make_feedback(
      "starved", ir::roundrobin_join({1, 1}), ir::dsl::identity("body"),
      ir::roundrobin_split({1, 1}), ir::dsl::identity("echo"), /*delay=*/0,
      /*init_path=*/{});
  auto g = ir::make_pipeline(
      "demo", {apps::rand_source("src"), std::move(loop),
               apps::null_sink("sink", 1)});
  const auto ds = analysis::verify_graph(g);
  EXPECT_TRUE(has_code(ds, "V-SCHED")) << analysis::render(ds);
}

// ---- one solver: gate, verifier and scheduler agree -------------------------

// src -> feedback loop (rr {1,1} joiner and splitter) -> sink, with `delay`
// zero items on the back edge.
ir::NodeP loop_program(ir::NodeP body, ir::NodeP arm, int delay) {
  auto loop = ir::make_feedback(
      "loop", ir::roundrobin_join({1, 1}), std::move(body),
      ir::roundrobin_split({1, 1}), std::move(arm), delay,
      std::vector<double>(static_cast<std::size_t>(delay), 0.0));
  return ir::make_pipeline("demo", {apps::rand_source("src"), std::move(loop),
                                    apps::null_sink("sink", 1)});
}

// Pushes its deepest peek `push` times, then pops `pop`.
ir::NodeP pass_filter(const char* name, int pop, int peek, int push) {
  std::vector<ir::StmtP> body;
  for (int i = 0; i < push; ++i) body.push_back(push_(peek_(ci(peek - 1))));
  body.push_back(discard(pop));
  return filter(name).rates(peek, pop, push).work(seq(std::move(body))).node();
}

struct AgreeCase {
  const char* name;
  const char* code;  // expected error code; nullptr when schedulable
  std::function<ir::NodeP()> make;
  // Flat-only rows corrupt the flattened graph of a valid program, so
  // analyze() cannot see the defect and is not asked.
  std::function<void(runtime::FlatGraph&)> corrupt;
};

std::vector<AgreeCase> agree_cases() {
  return {
      {"unsolvable-splitjoin", "V-RATES",
       [] {
         return ir::make_pipeline(
             "demo", {apps::rand_source("src"),
                      ir::make_splitjoin("mismatch", ir::duplicate_split(),
                                         ir::roundrobin_join({1, 1}),
                                         {identity("thru"),
                                          pass_filter("doubler", 1, 1, 2)}),
                      apps::null_sink("sink", 1)});
       },
       nullptr},
      {"zero-rate-endpoint", "V-RATES",
       [] {
         return ir::make_pipeline("demo", {apps::rand_source("src"),
                                           identity("thru"),
                                           apps::null_sink("sink", 1)});
       },
       [](runtime::FlatGraph& g) {  // flatten refuses to build this one
         for (auto& a : g.actors) {
           if (a.name == "thru") a.out_rate[0] = 0;
         }
       }},
      {"forward-cycle", "V-ORDER",
       [] { return loop_program(identity("body"), identity("echo"), 1); },
       [](runtime::FlatGraph& g) {
         for (auto& e : g.edges) e.back_edge = false;
       }},
      {"delay-0-loop", "V-SCHED",
       [] {
         return loop_program(identity("body"), apps::gain("decay", 0.5), 0);
       },
       nullptr},
      {"peeking-loop-delay-0", "V-SCHED",
       [] {
         return loop_program(pass_filter("peeker", 1, 2, 1), identity("echo"),
                             0);
       },
       nullptr},
      {"arm-consumes-2", "V-RATES",
       [] {
         return loop_program(pass_filter("body", 2, 2, 2),
                             pass_filter("arm", 2, 2, 1), 1);
       },
       nullptr},
      {"delayed-loop", nullptr,
       [] {
         return loop_program(identity("body"), apps::gain("decay", 0.5), 1);
       },
       nullptr},
  };
}

TEST(Verify, GateVerifierAndSchedulerAgree) {
  for (const AgreeCase& c : agree_cases()) {
    const bool schedulable = c.code == nullptr;
    const ir::NodeP p = c.make();
    runtime::FlatGraph g = runtime::flatten(p);
    if (c.corrupt) c.corrupt(g);

    const auto ds = analysis::verify_flat(g);
    EXPECT_EQ(analysis::has_errors(ds), !schedulable)
        << c.name << ":\n" << analysis::render(ds);
    if (!schedulable) {
      EXPECT_TRUE(has_code(ds, c.code)) << c.name << ":\n"
                                        << analysis::render(ds);
    }

    std::string thrown;
    try {
      (void)sched::make_schedule(g);
    } catch (const std::runtime_error& e) {
      thrown = e.what();
    }
    EXPECT_EQ(thrown.empty(), schedulable) << c.name << ": " << thrown;
    if (!schedulable) {
      EXPECT_NE(thrown.find(c.code), std::string::npos)
          << c.name << ": " << thrown;
    }

    if (!c.corrupt) {
      const analysis::AnalysisResult ar = analysis::analyze(p);
      EXPECT_EQ(ar.ok(), schedulable) << c.name << ":\n" << ar.report();
      if (!schedulable) {
        EXPECT_TRUE(has_code(ar.diagnostics, c.code)) << c.name << ":\n"
                                                      << ar.report();
      }
    }
  }
}

// ---- seeded mid-pipeline mutations ------------------------------------------

// Bumps the push rate of the first filter it finds inside a splitjoin,
// making the balance equations unsolvable.
ir::NodeP bump_push(const ir::NodeP& n, bool in_sj, bool* done) {
  if (n->kind == ir::Node::Kind::Filter) {
    if (in_sj && !*done) {
      ir::FilterSpec spec = n->filter;
      spec.push += 1;
      *done = true;
      return ir::make_filter(std::move(spec));
    }
    return n;
  }
  if (n->kind == ir::Node::Kind::Native) return n;
  const bool inner = in_sj || n->kind == ir::Node::Kind::SplitJoin;
  std::vector<ir::NodeP> kids;
  kids.reserve(n->children.size());
  for (const auto& c : n->children) kids.push_back(bump_push(c, inner, done));
  switch (n->kind) {
    case ir::Node::Kind::Pipeline:
      return ir::make_pipeline(n->name, std::move(kids));
    case ir::Node::Kind::SplitJoin:
      return ir::make_splitjoin(n->name, n->split, n->join, std::move(kids));
    case ir::Node::Kind::FeedbackLoop:
      return ir::make_feedback(n->name, n->join, kids[0], n->split, kids[1],
                               n->delay, n->init_path);
    default:
      return n;
  }
}

class BreakRatesPass final : public opt::Pass {
 public:
  const char* name() const override { return "break-rates"; }
  const char* description() const override { return "seeded rate corruption"; }
  opt::PassResult run(const ir::NodeP& root, opt::PassContext&) override {
    bool done = false;
    ir::NodeP out = bump_push(root, false, &done);
    EXPECT_TRUE(done) << "mutation found no splitjoin filter to corrupt";
    return {std::move(out), true};
  }
};

// Duplicates the root pipeline's middle stage *by reference*: two flat
// actors end up sharing one ir::Node (and therefore one logical state),
// which exactly one partition must own.
class DupStatePass final : public opt::Pass {
 public:
  const char* name() const override { return "dup-state"; }
  const char* description() const override { return "seeded state aliasing"; }
  opt::PassResult run(const ir::NodeP& root, opt::PassContext&) override {
    EXPECT_EQ(root->kind, ir::Node::Kind::Pipeline);
    EXPECT_GE(root->children.size(), 3u);
    std::vector<ir::NodeP> kids = root->children;
    kids.insert(kids.begin() + 1, kids[1]);  // same NodeP twice
    return {ir::make_pipeline(root->name, std::move(kids)), true};
  }
};

void expect_mutation_pinned(const std::string& app, opt::PassManager& pm,
                            const std::string& mutator,
                            const std::string& code) {
  opt::PassContext ctx;
  ctx.options.verify_each = opt::VerifyMode::Each;
  const std::vector<std::string> names = {"validate", "analysis-gate", mutator,
                                          "const-fold"};
  try {
    pm.run(apps::make_app(app), names, ctx);
    FAIL() << "verify_each missed the '" << mutator << "' corruption";
  } catch (const std::runtime_error& e) {
    // The throw must pin the offending pass by name...
    EXPECT_NE(std::string(e.what()).find("after pass '" + mutator + "'"),
              std::string::npos)
        << e.what();
  }
  // ...and the context carries the coded diagnostic.
  EXPECT_TRUE(has_code(ctx.diagnostics, code))
      << analysis::render(ctx.diagnostics);
  for (const auto& d : ctx.diagnostics) {
    if (d.code == code) {
      EXPECT_NE(d.message.find("after pass '" + mutator + "'"),
                std::string::npos);
    }
  }
}

TEST(VerifyEach, PinsRateCorruptionToOffendingPass) {
  opt::PassManager pm;
  pm.register_pass(std::make_unique<BreakRatesPass>());
  expect_mutation_pinned("FilterBank", pm, "break-rates", "V-RATES");
}

TEST(VerifyEach, PinsStateAliasingToOffendingPass) {
  opt::PassManager pm;
  pm.register_pass(std::make_unique<DupStatePass>());
  expect_mutation_pinned("FMRadio", pm, "dup-state", "V-STATE");
}

TEST(VerifyEach, CleanPipelineIsUndisturbed) {
  // With no corruption, verify-each is a no-op on the artifact: the full -O2
  // pipeline compiles every app with zero diagnostics from the verifier.
  for (const auto& a : apps::all_apps()) {
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O2;
    copts.pass.verify_each = opt::VerifyMode::Each;
    opt::PassContext ctx;
    EXPECT_NO_THROW(opt::compile(a.make(), copts, &ctx)) << a.name;
    EXPECT_FALSE(analysis::has_errors(ctx.diagnostics)) << a.name;
  }
}

// ---- bounds dominate observed occupancy -------------------------------------

bool is_linear_chain(const std::string& name) {
  return name == "FIR" || name == "RateConvert" || name == "DtoA" ||
         name == "Oversampler";
}

TEST(ChannelBounds, DominateObservedHighWaterOnAllApps) {
  for (const auto& a : apps::all_apps()) {
    for (const opt::OptLevel level :
         {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      // Batch factors: 1 (unbatched), -1 (auto heuristic), and one explicit
      // multi-iteration chunk.  Batching only matters on the threaded path,
      // so the sequential run exercises batch=1 alone.
      for (const int threads : {1, 4}) {
        for (const int batch : {1, -1, 4}) {
          if (threads == 1 && batch != 1) continue;
          opt::CompileOptions copts;
          copts.level = level;
          copts.exec.threads = threads;
          sched::CompiledProgram prog;
          try {
            prog = opt::compile(observable(a.make()), copts);
          } catch (const std::exception& e) {
            FAIL() << a.name << ": " << e.what();
          }
          sched::ExecOptions eopts;
          eopts.threads = threads;
          eopts.batch = batch;
          sched::ThreadedExecutor ex(std::move(prog), eopts);
          if (ex.graph().input_edge >= 0) {
            ex.set_input_generator([](std::int64_t i) {
              return static_cast<double>((i % 32) - 16) / 16.0;
            });
          }
          ex.run_steady(6);
          const obs::MetricsSnapshot m = ex.metrics_snapshot();
          const std::string what = a.name + " level=" +
                                   std::to_string(static_cast<int>(level)) +
                                   " threads=" + std::to_string(threads) +
                                   " batch=" + std::to_string(batch);
          ASSERT_FALSE(m.edges.empty()) << what;
          for (const auto& e : m.edges) {
            if (e.src < 0 || e.dst < 0) continue;  // unbounded boundary edges
            ASSERT_GE(e.bound_items, 0) << what << " edge " << e.name;
            EXPECT_LE(e.peak_items, e.bound_items)
                << what << " edge " << e.name;
            // In-order single-threaded runs track exact peaks at firing
            // boundaries; on the linear chain apps the bound is tight.
            // The fused engine lowers internal channels to trace buffers, so
            // it never observes intermediate occupancy -- high water is the
            // one metric fusion explicitly does not preserve (runtime/fused.h).
            if (threads == 1 && is_linear_chain(a.name) &&
                ex.engine() != sched::Engine::Fused) {
              EXPECT_EQ(e.peak_items, e.bound_items)
                  << what << " edge " << e.name;
            }
          }
        }
      }
    }
  }
}

TEST(ChannelBounds, ThreadedExecutorExposesBounds) {
  opt::CompileOptions copts;
  copts.level = opt::OptLevel::O0;
  copts.exec.threads = 4;
  sched::CompiledProgram prog = opt::compile(apps::make_app("FMRadio"), copts);
  sched::ExecOptions eopts;
  eopts.threads = 4;
  sched::ThreadedExecutor ex(std::move(prog), eopts);
  ex.run_steady(4);
  const analysis::ChannelBounds& b = ex.bounds();
  ASSERT_TRUE(b.single_appearance);
  ASSERT_EQ(b.post_init.size(), ex.graph().edges.size());
  for (std::size_t e = 0; e < ex.graph().edges.size(); ++e) {
    const auto& ed = ex.graph().edges[e];
    if (ed.src < 0 || ed.dst < 0) {
      EXPECT_EQ(b.post_init[e], -1);
      continue;
    }
    EXPECT_GE(b.post_init[e], 0);
    // The ring bound covers the post-init level plus every in-flight epoch;
    // the channel bound covers at least the resident post-init level.  (The
    // two are incomparable in general: in-order firing peaks can exceed the
    // epoch-granularity ring bound and vice versa.)
    EXPECT_GE(b.pipelined(e, sched::kPipelineWindow),
              b.post_init[e] + b.traffic[e]);
    EXPECT_GE(b.channel_bound(e), b.post_init[e]);
    // The batched generalizations: pipelined(e, W, B) = L0 + (W+1)*B*T,
    // monotone in B; the batched channel bound dominates the unbatched one.
    for (const std::int64_t batch : {1, 3, 8}) {
      EXPECT_EQ(b.pipelined(e, sched::kPipelineWindow, batch),
                b.post_init[e] +
                    (sched::kPipelineWindow + 1) * batch * b.traffic[e]);
      EXPECT_GE(b.channel_bound(e, batch), b.channel_bound(e));
    }
  }
  // An admissible single-appearance program supports at least batch 1.
  EXPECT_GE(b.max_batch, 1);
}

// ---- SIT_VERIFY resolution --------------------------------------------------

TEST(VerifyMode, EnvResolution) {
  const char* saved = std::getenv("SIT_VERIFY");
  const std::string saved_val = saved ? saved : "";

  ::unsetenv("SIT_VERIFY");
  EXPECT_EQ(env_verify(), 0);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Auto),
            opt::VerifyMode::Off);

  ::setenv("SIT_VERIFY", "each", 1);
  EXPECT_EQ(env_verify(), 2);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Auto),
            opt::VerifyMode::Each);

  ::setenv("SIT_VERIFY", "final", 1);
  EXPECT_EQ(env_verify(), 1);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Auto),
            opt::VerifyMode::Final);

  ::setenv("SIT_VERIFY", "on", 1);
  EXPECT_EQ(env_verify(), 1);

  ::setenv("SIT_VERIFY", "nonsense", 1);
  EXPECT_EQ(env_verify(), 0);

  // Explicit modes pass through regardless of the environment.
  ::setenv("SIT_VERIFY", "each", 1);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Off),
            opt::VerifyMode::Off);

  if (saved) {
    ::setenv("SIT_VERIFY", saved_val.c_str(), 1);
  } else {
    ::unsetenv("SIT_VERIFY");
  }
}

}  // namespace
}  // namespace sit
