#pragma once
// Graph transformations used by the parallelization strategies:
//
//   * fuse_subtree  -- collapse any subtree into a single native filter (a
//     fused segment) that executes the subtree's steady state internally
//     (StreamIt filter fusion), as one typed fused trace under the compiled
//     engines (parallel/segment.cc).  Fusing peeking children introduces
//     internal buffering, so the result is stateful exactly when the paper
//     says it is ("once a peeking filter is fused, it cannot be fissed").
//   * fiss          -- data-parallelize a stateless leaf K ways.  Non-peeking
//     filters fiss into a round-robin split-join; peeking filters fiss with a
//     duplicate splitter and per-replica decimation (the duplication is the
//     synchronization overhead the paper's coarse-grained algorithm weighs).
//     A replica of an AST filter is itself an AST filter, so the executor
//     runs it on whatever engine it runs every other filter on.
//   * coarsen_stateless -- fuse maximal regions of stateless, non-peeking
//     actors (the "coarsen granularity" step of coarse-grained data
//     parallelism).  Fused segments are named `<region>_coarse<N>` (and
//     selective_fusion's `<region>_sf<N>`), N counting from 0 within each
//     call, so the same input always yields the same actor names.
//   * selective_fusion  -- greedily fuse the cheapest adjacent work until the
//     actor count reaches a target (the software-pipelining preparation).

#include <string>

#include "ir/graph.h"

namespace sit::parallel {

// Is this leaf (or subtree) free of mutable state, and does it avoid
// peeking?  Both matter: state forbids fission outright; fusing peeking
// filters manufactures state.
bool leaf_stateful(const ir::Node& leaf);
bool subtree_stateful(const ir::NodeP& node);   // any stateful leaf / feedback
bool subtree_peeks(const ir::NodeP& node);      // any peeking leaf

// Collapse a subtree into one native filter.  The native filter's rates are
// the subtree's per-steady-state external rates; its first firing also
// absorbs the subtree's initialization epoch.  A segment inside `node` is
// inlined as its own body (NativeFilter::body), so the result's body holds
// no segment; rates and cost still come from `node` as given.
ir::NodeP fuse_subtree(const ir::NodeP& node, const std::string& name);

// Data-parallelize a stateless leaf K ways.  Throws if the leaf is stateful.
// A peeking leaf with pop p and peek e becomes replicas `<leaf>_rep<i>` with
// pop k*p and peek k*p + (e - p).  An AST replica i keeps the leaf's init and
// runs { pop_n(i*p); <work>; pop_n((k-1-i)*p) } (zero-count pops omitted).  A
// native replica runs the leaf's own state and work on a tape shifted by i*p.
ir::NodeP fiss(const ir::NodeP& leaf, int k);

// Fuse maximal stateless non-peeking regions bottom-up.  Returns a new tree.
ir::NodeP coarsen_stateless(const ir::NodeP& root);

// Greedy fusion until at most `target_actors` leaves remain (or no legal
// move is left).  Returns a new tree.
ir::NodeP selective_fusion(const ir::NodeP& root, int target_actors);

// The full coarse-grained data-parallelism transform: coarsen, then fiss
// every stateless leaf whose work share exceeds `min_work_share` by
// min(cores, reps-limit) ways.
ir::NodeP data_parallelize(const ir::NodeP& root, int cores,
                           double min_work_share = 0.01);

// Naive fine-grained data parallelism (the paper's cautionary baseline):
// fiss every stateless filter `cores` ways with no coarsening.
ir::NodeP fine_grained_parallelize(const ir::NodeP& root, int cores);

// Shape a graph into ~one well-sized actor per worker for the batched
// threaded runtime (the `coarsen` pass core): selective-fuse fine-grained
// graphs down to an actor budget (max_actors, defaulting to 4 * threads),
// coarsen maximal stateless regions, then fiss only leaves whose modeled
// work share clears a quarter of a worker (0.25 / threads) -- tiny actors
// never own a partition slice, so fissing them would only buy splitter /
// joiner traffic and ring crossings.  Returns a new tree; identity-shaped
// clone when threads <= 1.
ir::NodeP coarsen_for_threads(const ir::NodeP& root, int threads,
                              int max_actors = 0);

}  // namespace sit::parallel
