#pragma once
// SDF scheduling.
//
// From the flat graph we compute:
//   * the minimal steady-state repetition vector (balance equations, solved
//     exactly over the rationals and scaled to the least integer solution);
//   * an initialization firing count per actor that leaves every peeking
//     filter's input with its extra peek window buffered, so that thereafter
//     every steady state can execute with each actor firing exactly its
//     repetition count;
//   * per-edge steady-state traffic and buffer bounds.
//
// The derivation itself is analysis::solve_schedule (analysis/sdf.h), the
// one solver the analysis gate, the verifier and the channel bounds share;
// make_schedule is its throwing form.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/flatgraph.h"

namespace sit::sched {

struct Schedule {
  // reps[a]: firings of actor a per steady state (minimal integer solution).
  std::vector<std::int64_t> reps;
  // init_fires[a]: firings during the initialization epoch.
  std::vector<std::int64_t> init_fires;
  // Topological actor order used for in-order execution.
  std::vector<int> order;
  // Items crossing each edge per steady state.
  std::vector<std::int64_t> edge_traffic;
  // Upper bound on live items per edge when executing in `order`
  // (init epoch + one steady state), from static simulation of counts.
  std::vector<std::int64_t> buffer_bound;

  // Items consumed from the external input / pushed to the external output
  // per steady state (0 if the graph is closed).
  std::int64_t input_per_steady{0};
  std::int64_t output_per_steady{0};
  // External input items needed to complete the init epoch.
  std::int64_t input_for_init{0};

  [[nodiscard]] std::string describe(const runtime::FlatGraph& g) const;
};

// Computes the schedule; throws std::runtime_error carrying the rendered
// V-RATES / V-ORDER / V-SCHED diagnostics when none exists (inconsistent
// rates, a forward cycle, a diverging init epoch or a deadlocking epoch).
Schedule make_schedule(const runtime::FlatGraph& g);

}  // namespace sit::sched
