#pragma once
// The SDF solver: the one derivation of a flat graph's schedule.
//
// solve_schedule() computes, from the flat graph alone:
//   * the minimal steady-state repetition vector (balance equations
//     reps[src] * out_rate == reps[dst] * in_rate, solved exactly over the
//     rationals and scaled to the least positive integer solution);
//   * the topological firing order over the forward edges;
//   * the initialization firing counts that leave every peeking filter's
//     input with its extra peek window buffered (worklist relaxation; it
//     diverges when a feedback loop's delay cannot cover the loop's init
//     demand);
//   * per-edge steady-state traffic and the boundary rates;
//   * liveness and buffer bounds, by simulating the init epoch plus two
//     steady epochs data-driven in that order -- the executors' run_epoch,
//     firing for firing, so an in-order run peaks exactly at buffer_bound.
//     One completed steady epoch restores the post-init marking, so it
//     proves every later epoch runs too.
//
// Failures are reported, not thrown, as Diagnostics of pass "verify" with
// stable codes: V-RATES (no positive solution, or a zero-rate endpoint on a
// channel carrying data), V-ORDER (forward edges form a cycle) and V-SCHED
// (the init relaxation diverges, or an epoch deadlocks).  sched::
// make_schedule throws the rendered diagnostics; the analysis gate and
// verify_flat report them; channel_bounds reads the in-order peaks from the
// result.  All of them therefore share one definition of "schedulable".
//
// Precondition: the graph is structurally well formed (what flatten builds,
// or what verify_flat's V-STRUCT checks accept).

#include <optional>
#include <vector>

#include "analysis/diagnostic.h"
#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::analysis {

// The schedule, or nullopt with at least one error appended to `out`.
std::optional<sched::Schedule> solve_schedule(const runtime::FlatGraph& g,
                                              std::vector<Diagnostic>& out);

}  // namespace sit::analysis
