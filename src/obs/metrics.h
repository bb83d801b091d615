#pragma once
// Metrics registry snapshots.
//
// The live counters behind these snapshots are scattered where they are
// cheapest to maintain -- firing tallies and OpCounts in the executors,
// cumulative push/pop counters and high-water marks in the channels/rings,
// wall-ns firing stats and worker busy/wait accounting in the obs::Recorder.
// A MetricsSnapshot pulls them together quiescently (no worker running) into
// one value type that serializes to JSON, so streamprof, the bench binaries,
// and tests all share a single schema.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/opcounts.h"

namespace sit::obs {

struct ActorSnapshot {
  std::string name;
  std::int64_t firings{0};
  runtime::OpCounts ops;       // abstract-op tallies (zero when count_ops off)
  double calib_cycles{0};      // weighted() cycles -- the partitioners' cost
  int worker{-1};              // owning worker in the threaded runtime
  // Timing (zeros unless tracing was enabled).
  std::int64_t wall_ns{0};
  std::int64_t max_ns{0};
  std::vector<std::int64_t> hist;  // log2 ns-per-firing buckets
  // Typed (dual-plane) specialization status: "typed" when the actor's work
  // runs on the unboxed register file, the stable refusal reason when
  // inference refused, empty when the actor was never a candidate
  // (non-filter, tree fallback, or SIT_TYPED=0).
  std::string typed_status;
  int typed_regs{0};  // registers proven Double everywhere (0 when tagged)
  // Fused segments only (parallel/segment.h): what the segment's body runs
  // on -- "fused" (its typed fused trace), "tree" (per actor on the tree
  // interpreter, the owning executor's choice), or "typed-vm:<reason>" (per
  // actor on the typed VM because fusion or typing refused, with the stable
  // refusal reason).  Empty for every other actor.
  std::string segment;
};

struct EdgeSnapshot {
  std::string name;  // "src->dst" using actor names; "input"/"output" at the boundary
  int src{-1};
  int dst{-1};
  std::int64_t pushed{0};       // cumulative n(t)
  std::int64_t popped{0};       // cumulative p(t)
  std::int64_t peak_items{0};   // high-water occupancy
  std::int64_t bound_items{-1}; // static occupancy bound (analysis::
                                // channel_bounds); -1 = unbounded boundary
                                // edge or bound unavailable
  bool ring{false};             // migrated to an SPSC ring
  // Static content tag of the items this edge carries ("int" = provably
  // integer-valued, "double" = not provably integral, empty = typeflow did
  // not run).  Channels physically store double either way; the tag is the
  // typed-dataflow certificate.
  std::string content;
};

// One compilation-pipeline pass as run by the opt::PassManager: wall time
// plus the graph delta it caused (flat actor/edge counts and the modeled
// cost per input item before and after).  Counts are -1 when the graph was
// not flattenable at that boundary (e.g. before `validate` rejected it).
struct PassSnapshot {
  std::string name;
  std::int64_t wall_ns{0};
  int actors_before{-1};
  int actors_after{-1};
  int edges_before{-1};
  int edges_after{-1};
  double cost_before{0};  // modeled cost per input item (linear/cost.h)
  double cost_after{0};
  // Measured cost per input item under the active calibrated model
  // (obs/costmodel.h): per-actor measured weights where the profile has
  // them, static fallback elsewhere.  0 when no calibrated model is active.
  double mcost_before{0};
  double mcost_after{0};
  bool changed{false};
};

struct WorkerSnapshot {
  int id{0};
  int actors{0};
  std::int64_t wall_ns{0};
  std::int64_t wait_ns{0};
  std::int64_t iters{0};
  // Steady-state utilization: 1 - wait/wall (0 when the worker never ran).
  [[nodiscard]] double utilization() const {
    return wall_ns > 0
               ? 1.0 - static_cast<double>(wait_ns) / static_cast<double>(wall_ns)
               : 0.0;
  }
};

struct MetricsSnapshot {
  std::string app;     // filled by the caller (streamprof / bench)
  std::string engine;  // "vm" or "tree"
  int threads{1};
  int batch{1};  // steady iterations per pipeline step (threaded runtime)
  bool threaded{false};
  std::string fallback;         // stable ThreadedReport reason name
  std::string fallback_detail;  // human-readable detail, may be empty
  double predicted_speedup{0};

  // Fused-engine statics (engine == "fused" with an active trace only):
  // superinstruction instance counts by stable name (runtime/fused.h), the
  // number of internal channels lowered to trace buffers, and the length of
  // the (rolled) trace in instructions.
  std::vector<std::pair<std::string, std::int64_t>> fused_super;
  int fused_channels{-1};  // -1 = not running a fused trace
  std::int64_t fused_trace_instrs{-1};

  // Typed-dataflow specialization counters (-1 = typed mode off or not
  // surveyed): actors running on the dual-plane register file, their total
  // Double-proven registers, and edges whose content tag is statically
  // known Double.
  int typed_actors{-1};
  int typed_regs{-1};
  int typed_channels{-1};

  // Compilation provenance: the pass pipeline that produced the executed
  // graph (comma-joined spec; empty when the executor was built from a raw
  // graph without the pass manager) and its per-pass stats.
  std::string pipeline;
  std::vector<PassSnapshot> passes;

  // Cost-model provenance and modeled-vs-measured divergence (filled by
  // annotate_cost_model below): which model drove partitioning/selection
  // ("static" or "calibrated"), where its profile came from, and the
  // measured/modeled ratio per actor the profile covers.
  std::string cost_source{"static"};
  std::string cost_profile;  // profile path; empty when static
  std::vector<std::pair<std::string, double>> cost_divergence;

  std::vector<ActorSnapshot> actors;
  std::vector<EdgeSnapshot> edges;
  std::vector<WorkerSnapshot> workers;

  std::int64_t trace_events{0};
  std::int64_t trace_dropped{0};

  [[nodiscard]] std::string to_json() const;
};

// Stamp the active cost model (obs/costmodel.h) into a snapshot: source,
// profile path, and per-actor divergence ratios for the snapshot's actors.
// A no-op beyond defaults when the model is static.  The executors call this
// at the end of metrics_snapshot() so every emitted snapshot records which
// model was live.
void annotate_cost_model(MetricsSnapshot* m);

}  // namespace sit::obs
