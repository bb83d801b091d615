#pragma once
// Optimization selection: decide, over the stream hierarchy, where to apply
// linear combination and frequency translation (the paper's selection
// algorithm).  Pipelines are searched with an interval dynamic program
// (every contiguous run of linear stages is a collapse candidate);
// split-joins with all-linear branches are collapse candidates as a whole;
// every linear candidate is additionally considered in the frequency domain.
// A candidate is chosen iff it lowers the modeled cost per input item.
// Candidates are costed without being built: a linear candidate from its
// LinearRep, a pipeline split by composing its halves' costs.  Only the
// selected plan is materialized into ir nodes.

#include <optional>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "linear/cost.h"
#include "linear/linear_rep.h"

namespace sit::linear {

struct OptimizeOptions {
  bool enable_combination{true};
  bool enable_frequency{true};
  // Weight of splitter/joiner item movement relative to a flop.  Small and
  // nonzero: it breaks ties in favor of fewer actors, mirroring the paper's
  // observation that collapsing also removes synchronization.
  double sync_weight{0.05};
  // Skip combination candidates whose matrix would exceed this entry count
  // (guards against lcm blow-up on wildly mismatched rates).
  std::size_t max_matrix_entries{1u << 22};
};

// One optimization-selection decision, in the order the optimizer considered
// it: a candidate rewrite of a site (filter, pipeline interval, or
// split-join) that was either selected for its subtree (`applied`, with the
// modeled costs that justified it) or refused (`note` says why -- not
// linear, not combinable, not cheaper).  Candidates selected at one level of
// the interval DP can still lose to a larger enclosing candidate; the
// OptimizeStats counters report what the final plan materialized.
struct RewriteRecord {
  std::string pass;   // "combine" | "frequency" | "extract"
  std::string site;   // node or interval name, e.g. "pipe[0..3]"
  double cost_before{0.0};  // modeled cost/item of the structural form
  double cost_after{0.0};   // modeled cost/item of the candidate
  bool applied{false};
  std::string note;   // refusal reason when !applied

  [[nodiscard]] std::string to_string() const;  // one line
};

struct OptimizeStats {
  int total_filters{0};
  int linear_filters{0};
  // Rewrites this run materialized (nodes an earlier pass created are not
  // counted again).
  int combinations{0};       // collapse rewrites applied
  int frequency_nodes{0};    // frequency translations applied
  double cost_before{0.0};   // modeled cost per input item
  double cost_after{0.0};
  // Cost of the selected plan, composed during selection; equal to
  // node_cost() of the returned graph up to summation order.
  NodeCost plan_cost;
  // Structured per-candidate decisions (selections and refusals), replacing
  // the historical append-only log string; log() renders them for humans.
  std::vector<RewriteRecord> records;

  [[nodiscard]] std::string log() const;  // records, one per line
};

// Run the selection algorithm and return the rewritten graph (a fresh tree;
// the input is not mutated).  This is the implementation behind the
// `linear-combine` and `frequency` passes of the pass pipeline
// (opt/pass_manager.h); prefer opt::compile() for whole-program compilation
// (per-pass stats, verification, artifact) and call this directly only for
// a bare graph-to-graph rewrite.
ir::NodeP optimize_selection(const ir::NodeP& root,
                             const OptimizeOptions& opts = {},
                             OptimizeStats* stats = nullptr);

// Extraction over a whole subtree: the linear rep of the subtree's stream
// function if every leaf is linear and the structure is combinable.
std::optional<LinearRep> extract_tree(const ir::NodeP& node,
                                      const OptimizeOptions& opts = {});

}  // namespace sit::linear
