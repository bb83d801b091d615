#pragma once
// The pass interface of the compilation pipeline.
//
// The paper's compiler is a pipeline: linear extraction, combination,
// frequency translation, and optimization selection run as ordered phases
// over the stream hierarchy before scheduling and mapping.  This layer makes
// that pipeline first-class: each phase is a named Pass over the
// hierarchical graph, run by the PassManager (pass_manager.h) under a shared
// PassContext that accumulates diagnostics, per-candidate rewrite records,
// and per-pass stats (wall time + graph delta), and compile() (compile.h)
// turns the result into the sched::CompiledProgram artifact the executors
// consume.
//
// Passes are pure graph-to-graph functions: they never mutate the input tree
// (rewrites return a fresh tree, sharing immutable ASTs) and carry no state
// between runs, so a PassManager is reusable and thread-compatible.

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "ir/graph.h"
#include "linear/optimize.h"
#include "obs/metrics.h"

namespace sit::opt {

// When PassManager::run re-checks the stream-graph invariants with the
// semantic verifier (analysis/verify.h).  Each runs it after every pass and
// names the offending pass when an invariant breaks; Final verifies only the
// pipeline's output; Auto defers to the SIT_VERIFY environment variable
// ("each"/"2", "final"/"1"/"on", default off).
enum class VerifyMode { Auto, Off, Final, Each };

// Knobs shared by the built-in passes.
struct PassOptions {
  // Parallelism target for the mapping passes (fission, coarsen).
  int threads{1};
  // selective-fuse target leaf count; 0 derives max(2, 4 * threads).
  int target_actors{0};
  // Shared linear-optimization knobs (sync weight, matrix-size guard).
  linear::OptimizeOptions linear;
  // Run the verifier after every pass (streamc --verify-each, SIT_VERIFY).
  VerifyMode verify_each{VerifyMode::Auto};
};

class PassContext {
 public:
  PassOptions options;

  // Findings of the gate passes (validate, analysis-gate).  Errors abort the
  // pipeline by throwing; warnings accumulate here.
  std::vector<analysis::Diagnostic> diagnostics;

  // Per-candidate optimization decisions from the linear passes
  // (linear::OptimizeStats::records), surfaced by `streamc --report`.
  std::vector<linear::RewriteRecord> rewrites;

  // One entry per pass run, in order (filled by PassManager::run).
  std::vector<obs::PassSnapshot> stats;

  // Observability hook: called after every pass with its stats and the graph
  // it produced (streamc --dump-after, pass tracing).
  std::function<void(const obs::PassSnapshot&, const ir::NodeP&)> on_pass;
};

struct PassResult {
  ir::NodeP graph;      // rewritten graph (== input when nothing changed)
  bool changed{false};  // the pass rewrote the graph
};

class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  // One-line description for `streamc --list-passes`.
  [[nodiscard]] virtual const char* description() const = 0;
  // Run over `root`.  Must not mutate the input tree; throws (with rendered
  // diagnostics) when the pass gates compilation and the program fails it.
  virtual PassResult run(const ir::NodeP& root, PassContext& ctx) = 0;
};

}  // namespace sit::opt
