#pragma once
// The compiled-program artifact.
//
// A CompiledProgram is what the opt/ pass pipeline produces and what every
// executor consumes: the final (post-pass) stream graph, its flattened actor
// form, the SDF schedule, and the engine/thread choice the pipeline resolved
// -- plus the per-pass stats that document how the graph got this shape.
// Executors built from a CompiledProgram do not re-validate, re-flatten, or
// re-schedule; the artifact is the single source of truth, which is also the
// seam future work (compiled-program caching, autotuning, multi-backend)
// plugs into.
//
// Invariant: `flat` holds raw `const ir::Node*` pointers into the tree owned
// by `graph`, so `graph` must outlive `flat` -- anything holding a
// CompiledProgram (or a copy; copies share the graph) satisfies this
// automatically.

#include <string>
#include <vector>

#include "ir/graph.h"
#include "obs/metrics.h"
#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::sched {

// Which work-function engine drives AST filters.  Vm compiles each filter's
// work function to bytecode once and runs it on the per-actor typed VM
// (runtime/typed.h), falling back to the tree interpreter *per filter* where
// the bytecode compiler or typeflow refuses; Tree forces the tree
// interpreter everywhere.  Fused additionally compiles one whole
// steady-state iteration into a single flat bytecode trace with
// superinstructions (runtime/fused.h) and runs it on the typed dual-plane
// register file when the program is admissible (analysis/fuse.h) and
// typeflow accepts the whole trace, falling back to Vm's per-actor execution
// -- whole-program, not per-filter -- when not.  Auto
// resolves from the SIT_ENGINE environment variable ("tree", "vm", or
// "fused"), defaulting to Vm -- which lets CI run the whole test suite under
// any engine without code changes.
enum class Engine { Auto, Tree, Vm, Fused };

struct CompiledProgram {
  ir::NodeP source;  // pre-pipeline graph (provenance; may be null)
  ir::NodeP graph;   // final graph; owns the nodes `flat` points into
  runtime::FlatGraph flat;
  Schedule schedule;

  // Resolved execution choice.  Engine::Auto / threads 0 mean "decide at
  // executor construction from the environment" (the pre-pipeline default).
  Engine engine{Engine::Auto};
  int threads{0};

  // The pass spec that was actually run ("validate,analysis-gate,...";
  // empty for a bare lower()) and its per-pass stats, stamped into every
  // obs::MetricsSnapshot taken from an executor of this program.
  std::string pipeline;
  std::vector<obs::PassSnapshot> passes;

  [[nodiscard]] bool valid() const { return graph != nullptr; }
};

// Validate, flatten, and schedule a graph without running any optimization
// passes: the minimal CompiledProgram (what the executors' graph-taking
// constructors have always done internally).  Throws on analysis errors.
CompiledProgram lower(ir::NodeP root);

}  // namespace sit::sched
