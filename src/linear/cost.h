#pragma once
// Static work estimation and the cost model driving optimization selection.
//
// The paper's selection algorithm compares the floating-point cost of
// executing a subgraph (a) as-is, (b) collapsed into one linear node, and
// (c) in the frequency domain.  Costs here are flops per steady state of the
// node under evaluation, computed by instrumenting one firing of each filter
// with the interpreter and scaling by the steady-state repetition vector.

#include <string>

#include "ir/graph.h"
#include "linear/linear_rep.h"
#include "runtime/opcounts.h"

namespace sit::linear {

// Abstract operation counts of one work invocation, measured by running the
// filter once on synthetic input (all ones).  Falls back to an AST-size
// heuristic if execution faults (e.g. division by the synthetic data).
runtime::OpCounts estimate_work(const ir::FilterSpec& spec);

// The OpCounts estimate_work(to_filter(rep, ...)) tallies, counted from the
// matrix instead of by building and interpreting the filter: per nonzero
// coefficient one row-loop trip (2 int ops), one coefficient load, one peek,
// one multiply and one add; per output row the push; then the final pop_n.
// Requires peek >= pop, as every extracted or combined rep has.
runtime::OpCounts direct_work(const LinearRep& rep);

// Per-firing flop estimate for any leaf node (AST filter or native).
double leaf_flops_per_firing(const ir::Node& leaf);

// Per-firing total-op estimate (flops + int + mem + channel, cycle-weighted).
double leaf_ops_per_firing(const ir::Node& leaf);

struct NodeCost {
  double flops_per_ss{0};       // floating-point work per steady state
  double ops_per_ss{0};         // cycle-weighted work per steady state
  double sync_per_ss{0};        // items moved through splitters/joiners
  std::int64_t in_per_ss{0};    // external input consumed per steady state
  std::int64_t out_per_ss{0};   // external output produced per steady state

  // Calibrated view (obs/costmodel.h): like ops_per_ss but with each
  // filter's per-firing weight taken from the active measured profile where
  // it covers the actor's name, static estimate elsewhere.  Equal to
  // ops_per_ss (and measured_actors == 0) when no calibrated model is
  // loaded, so consumers can use it unconditionally.
  double meas_ops_per_ss{0};
  int measured_actors{0};       // filters the profile actually covered

  // Cost per input item (or per output item for pure sources), the
  // normalization the selection DP compares with.  Uses the cycle-weighted
  // operation count so decisions line up with the modeled execution cost
  // (the paper's compiler minimizes FLOPs; ours additionally sees the
  // channel-traffic cost of each alternative).
  [[nodiscard]] double per_item(double sync_weight) const {
    return normalize(ops_per_ss + sync_weight * sync_per_ss);
  }

  // Same normalization over the calibrated work sum.
  [[nodiscard]] double meas_per_item(double sync_weight) const {
    return normalize(meas_ops_per_ss + sync_weight * sync_per_ss);
  }

 private:
  [[nodiscard]] double normalize(double c) const {
    if (in_per_ss > 0) return c / static_cast<double>(in_per_ss);
    if (out_per_ss > 0) return c / static_cast<double>(out_per_ss);
    return c;
  }
};

// Schedule the subtree in isolation and total its cost.  The static fields
// never depend on runtime state; the meas_* fields consult the process-wide
// calibrated model (obs/costmodel.h) keyed by flat-actor name, falling back
// to the static estimate per actor, so a partially-covering profile still
// yields a full-graph cost.
NodeCost node_cost(const ir::NodeP& node);

// The per-firing weight the calibrated model assigns `leaf` under its flat
// name `actor_name`: the measured weight when the active profile covers the
// name, `leaf_ops_per_firing` otherwise.  The single fallback rule every
// calibrated consumer (LPT, coarsen gate, selection) shares.
double calibrated_ops_per_firing(const ir::Node& leaf,
                                 const std::string& actor_name);

}  // namespace sit::linear
