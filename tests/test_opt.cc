// Pass-manager unit tests: registry and spec parsing, preset pipelines,
// environment resolution (SIT_OPT / SIT_PASSES and the consolidated
// sit::resolve_exec_options), compile() artifacts, pass hooks, and the
// structured per-candidate rewrite records.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "opt/compile.h"
#include "sched/envopts.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit::opt {
namespace {

// Scoped environment override (restores the previous value on destruction).
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVar() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

// ---- registry ---------------------------------------------------------------

TEST(PassRegistry, AllBuiltinsRegistered) {
  const PassManager& pm = PassManager::global();
  for (const char* name :
       {"validate", "analysis-gate", "verify", "const-fold", "linear-extract",
        "linear-combine", "frequency", "selective-fuse", "fission",
        "coarsen", "fuse-steady", "typeflow"}) {
    Pass* p = pm.find(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_STREQ(p->name(), name);
    EXPECT_NE(std::string(p->description()), "");
  }
  EXPECT_EQ(pm.find("nonsense"), nullptr);
  EXPECT_EQ(pm.pass_names().size(), 12u);
}

TEST(PassRegistry, LaterRegistrationShadows) {
  class Nop final : public Pass {
   public:
    const char* name() const override { return "validate"; }
    const char* description() const override { return "shadow"; }
    PassResult run(const ir::NodeP& root, PassContext&) override {
      return {root, false};
    }
  };
  PassManager pm;
  Pass* builtin = pm.find("validate");
  pm.register_pass(std::make_unique<Nop>());
  Pass* shadowed = pm.find("validate");
  EXPECT_NE(shadowed, builtin);
  EXPECT_STREQ(shadowed->description(), "shadow");
}

// ---- spec parsing -----------------------------------------------------------

TEST(PassSpec, ParsesAndTrims) {
  const auto names = parse_spec(" validate , const-fold ,, frequency ");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "validate");
  EXPECT_EQ(names[1], "const-fold");
  EXPECT_EQ(names[2], "frequency");
  EXPECT_TRUE(parse_spec("").empty());
}

TEST(PassSpec, RejectsUnknownNames) {
  EXPECT_THROW(parse_spec("validate,no-such-pass"), std::invalid_argument);
  try {
    parse_spec("no-such-pass");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-pass"), std::string::npos);
  }
}

// ---- presets ----------------------------------------------------------------

TEST(Presets, LevelsNest) {
  const auto o0 = preset(OptLevel::O0);
  const auto o1 = preset(OptLevel::O1);
  const auto o2 = preset(OptLevel::O2);
  ASSERT_EQ(o0, (std::vector<std::string>{"validate", "analysis-gate"}));
  // Each level extends the previous one.
  ASSERT_GT(o1.size(), o0.size());
  ASSERT_GT(o2.size(), o1.size());
  for (std::size_t i = 0; i < o0.size(); ++i) EXPECT_EQ(o1[i], o0[i]);
  for (std::size_t i = 0; i < o1.size(); ++i) EXPECT_EQ(o2[i], o1[i]);
  EXPECT_EQ(o2.back(), "frequency");
  // Mapping passes never appear in presets (engine interchangeability).
  for (const auto& n : o2) {
    EXPECT_NE(n, "coarsen");
    EXPECT_NE(n, "fission");
    EXPECT_NE(n, "selective-fuse");
  }
}

TEST(Presets, AutoResolvesFromEnv) {
  {
    EnvVar opt("SIT_OPT", "0");
    EXPECT_EQ(resolve_opt_level(OptLevel::Auto), OptLevel::O0);
    EXPECT_EQ(preset(OptLevel::Auto), preset(OptLevel::O0));
    // Explicit levels ignore the environment.
    EXPECT_EQ(resolve_opt_level(OptLevel::O2), OptLevel::O2);
  }
  {
    EnvVar opt("SIT_OPT", "1");
    EXPECT_EQ(resolve_opt_level(OptLevel::Auto), OptLevel::O1);
  }
  {
    EnvVar opt("SIT_OPT", nullptr);
    EXPECT_EQ(resolve_opt_level(OptLevel::Auto), OptLevel::O2);
  }
}

// ---- consolidated env resolution (satellite 1) ------------------------------

TEST(ExecEnv, Defaults) {
  EnvVar e("SIT_ENGINE", nullptr), t("SIT_THREADS", nullptr),
      tr("SIT_TRACE", nullptr), s("SIT_STALL_MS", nullptr),
      o("SIT_OPT", nullptr), p("SIT_PASSES", nullptr);
  const ExecEnv env = resolve_exec_options();
  EXPECT_EQ(env.engine, sched::Engine::Vm);
  EXPECT_EQ(env.threads, 1);
  EXPECT_FALSE(env.trace);
  EXPECT_EQ(env.stall_ms, 120000);
  EXPECT_EQ(env.opt_level, 2);
  EXPECT_TRUE(env.passes.empty());
}

TEST(ExecEnv, ReadsEveryKnob) {
  EnvVar e("SIT_ENGINE", "tree"), t("SIT_THREADS", "3"),
      s("SIT_STALL_MS", "5000"), o("SIT_OPT", "1"),
      p("SIT_PASSES", "validate,const-fold");
  const ExecEnv env = resolve_exec_options();
  EXPECT_EQ(env.engine, sched::Engine::Tree);
  EXPECT_EQ(env.threads, 3);
  EXPECT_EQ(env.stall_ms, 5000);
  EXPECT_EQ(env.opt_level, 1);
  EXPECT_EQ(env.passes, "validate,const-fold");
}

TEST(ExecEnv, ClampsAndSanitizes) {
  {
    EnvVar t("SIT_THREADS", "0"), o("SIT_OPT", "7");
    const ExecEnv env = resolve_exec_options();
    EXPECT_EQ(env.threads, 1);   // threads >= 1
    EXPECT_EQ(env.opt_level, 2); // clamped to [0, 2]
  }
  {
    EnvVar o("SIT_OPT", "-3");
    EXPECT_EQ(resolve_exec_options().opt_level, 0);
  }
}

// ---- compile() --------------------------------------------------------------

TEST(Compile, FirAtO2ReducesModeledCost) {
  CompileOptions copts;
  copts.level = OptLevel::O2;
  PassContext ctx;
  const sched::CompiledProgram prog =
      compile(apps::make_app("FIR"), copts, &ctx);
  ASSERT_TRUE(prog.valid());
  EXPECT_EQ(prog.pipeline,
            "validate,analysis-gate,const-fold,linear-combine,frequency");
  ASSERT_EQ(prog.passes.size(), 5u);
  for (const auto& p : prog.passes) {
    EXPECT_GE(p.wall_ns, 0);
    EXPECT_GT(p.actors_before, 0);
    EXPECT_GT(p.edges_before, 0);
  }
  // The linear passes must pay for themselves on the flagship linear app.
  EXPECT_LT(prog.passes.back().cost_after,
            prog.passes.front().cost_before * 0.5);
  // Stats snapshot == context stats, and the report renders all of it.
  EXPECT_EQ(ctx.stats.size(), prog.passes.size());
  const std::string report = pass_report(prog, &ctx.rewrites);
  EXPECT_NE(report.find("pipeline: "), std::string::npos);
  EXPECT_NE(report.find("frequency"), std::string::npos);
  EXPECT_NE(report.find("% reduction"), std::string::npos);
}

TEST(Compile, ExplicitSpecOverridesLevelAndEnv) {
  EnvVar p("SIT_PASSES", "validate,analysis-gate,frequency");
  {
    CompileOptions copts;  // no explicit spec: SIT_PASSES wins over level
    copts.level = OptLevel::O0;
    const auto prog = compile(apps::make_app("FIR"), copts);
    EXPECT_EQ(prog.pipeline, "validate,analysis-gate,frequency");
  }
  {
    CompileOptions copts;  // explicit spec wins over SIT_PASSES
    copts.passes = "validate,analysis-gate,linear-combine";
    const auto prog = compile(apps::make_app("FIR"), copts);
    EXPECT_EQ(prog.pipeline, "validate,analysis-gate,linear-combine");
  }
}

TEST(Compile, GatesArePrependedWhenMissing) {
  CompileOptions copts;
  copts.passes = "linear-combine";
  const auto prog = compile(apps::make_app("FIR"), copts);
  EXPECT_EQ(prog.pipeline, "validate,analysis-gate,linear-combine");

  copts.ensure_gate = false;
  const auto bare = compile(apps::make_app("FIR"), copts);
  EXPECT_EQ(bare.pipeline, "linear-combine");
}

TEST(Compile, OnPassHookFiresInOrder) {
  CompileOptions copts;
  copts.level = OptLevel::O1;
  std::vector<std::string> seen;
  copts.on_pass = [&seen](const obs::PassSnapshot& s, const ir::NodeP& g) {
    ASSERT_NE(g, nullptr);
    seen.push_back(s.name);
  };
  compile(apps::make_app("FIR"), copts);
  EXPECT_EQ(seen, preset(OptLevel::O1));
}

TEST(Compile, InvalidProgramIsRejectedByTheGate) {
  // A splitjoin whose joiner arity disagrees with the branch count fails
  // structural validation -> the validate pass throws.
  auto bad = ir::make_splitjoin(
      "bad", ir::roundrobin_split({1, 1}), ir::roundrobin_join({1}),
      {apps::make_app("FIR"), apps::make_app("FIR")});
  EXPECT_THROW(compile(bad), std::runtime_error);
}

TEST(Compile, RewriteRecordsAreStructured) {
  CompileOptions copts;
  copts.level = OptLevel::O2;
  PassContext ctx;
  compile(apps::make_app("FIR"), copts, &ctx);
  bool saw_selected = false, saw_refusal = false;
  for (const auto& r : ctx.rewrites) {
    EXPECT_FALSE(r.pass.empty());
    EXPECT_FALSE(r.site.empty());
    if (r.applied) {
      saw_selected = true;
      EXPECT_LT(r.cost_after, r.cost_before) << r.to_string();
    } else if (r.pass == "extract") {
      saw_refusal = true;
      EXPECT_NE(r.note.find("not linear"), std::string::npos);
    }
    EXPECT_FALSE(r.to_string().empty());
  }
  EXPECT_TRUE(saw_selected);
  EXPECT_TRUE(saw_refusal);  // the stateful source refuses extraction
}

TEST(Compile, RepeatedLinearPassesAreUnchanged) {
  // A second linear-combine / frequency run finds nothing new to rewrite.
  // The `_lin` / `_freq` nodes the first run created must not count as this
  // run's rewrites: the repeat reports unchanged and returns its input.
  // FMRadio's first run of each pass rewrites; a lone FIR filter gains
  // nothing from combination, so FIR would not exercise the repeat.
  CompileOptions copts;
  copts.passes = "validate,linear-combine,linear-combine,frequency,frequency";
  std::vector<ir::NodeP> outputs;
  copts.on_pass = [&outputs](const obs::PassSnapshot&, const ir::NodeP& g) {
    outputs.push_back(g);
  };
  PassContext ctx;
  compile(apps::make_app("FMRadio"), copts, &ctx);
  std::vector<bool> changed;
  for (const obs::PassSnapshot& s : ctx.stats) changed.push_back(s.changed);
  ASSERT_EQ(ctx.stats.size(), 6u);  // analysis-gate is prepended
  EXPECT_EQ(changed,
            (std::vector<bool>{false, false, true, false, true, false}));
  EXPECT_EQ(outputs[3], outputs[2]);  // second linear-combine: identity
  EXPECT_EQ(outputs[5], outputs[4]);  // second frequency: identity
}

// ---- artifact consumption ---------------------------------------------------

std::vector<double> run_executor(sched::Executor& ex, int items) {
  std::vector<double> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < items && ++guard < 4000) {
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(static_cast<std::size_t>(items));
  return out;
}

TEST(Artifact, ExecutorFromProgramMatchesExecutorFromGraph) {
  const auto app = observable(apps::make_app("RateConvert"));
  CompileOptions copts;
  copts.level = OptLevel::O0;  // gates only: graph passes through untouched
  sched::Executor from_prog(compile(app, copts));
  sched::Executor from_graph(ir::clone(app));
  const auto a = run_executor(from_prog, 48);
  const auto b = run_executor(from_graph, 48);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "item " << i;  // bit-equal
  }
}

TEST(Artifact, ProgramEngineAppliesWhenOptsAreAuto) {
  CompileOptions copts;
  copts.level = OptLevel::O0;
  copts.exec.engine = sched::Engine::Tree;
  sched::Executor ex(compile(apps::make_app("FIR"), copts));
  EXPECT_EQ(ex.engine(), sched::Engine::Tree);

  // An explicit executor option still overrides the artifact default.
  sched::ExecOptions pin;
  pin.engine = sched::Engine::Vm;
  sched::Executor pinned(compile(apps::make_app("FIR"), copts), pin);
  EXPECT_EQ(pinned.engine(), sched::Engine::Vm);
}

TEST(Artifact, MetricsCarryPipelineAndPassStats) {
  CompileOptions copts;
  copts.level = OptLevel::O2;
  sched::Executor ex(compile(apps::make_app("FIR"), copts));
  ex.run_steady(1);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.pipeline,
            "validate,analysis-gate,const-fold,linear-combine,frequency");
  ASSERT_EQ(m.passes.size(), 5u);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"passes\""), std::string::npos);
  EXPECT_NE(json.find("\"linear-combine\""), std::string::npos);
}

TEST(Artifact, ThreadedExecutorConsumesProgram) {
  CompileOptions copts;
  copts.passes = "validate,analysis-gate,fission";
  copts.exec.threads = 4;
  sched::ExecOptions opts;
  opts.threads = 4;
  sched::ThreadedExecutor tex(compile(apps::make_app("FMRadio"), copts), opts);
  EXPECT_NO_THROW(tex.run_steady(2));
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  EXPECT_EQ(m.pipeline, "validate,analysis-gate,fission");
  EXPECT_EQ(m.passes.size(), 3u);
}

// Fused segments are named per compile, not from a process-wide counter:
// compiling the same program twice yields the same flat actor names, so
// name-matched cost profiles keep matching.
TEST(Artifact, CoarsenNamesRepeatAcrossCompiles) {
  CompileOptions copts;
  copts.passes =
      "validate,analysis-gate,const-fold,linear-combine,frequency,coarsen";
  copts.exec.threads = 4;
  const auto names = [&copts] {
    std::vector<std::string> out;
    for (const auto& a : compile(apps::make_app("DES"), copts).flat.actors) {
      out.push_back(a.name);
    }
    return out;
  };
  const std::vector<std::string> first = names();
  EXPECT_EQ(names(), first);
  const auto has = [&first](const char* tag) {
    for (const auto& n : first) {
      if (n.find(tag) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("_coarse"));
  EXPECT_TRUE(has("_sf"));
}

}  // namespace
}  // namespace sit::opt
