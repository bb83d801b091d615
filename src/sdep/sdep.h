#pragma once
// Information-wavefront analysis.
//
// The paper defines, for tapes a upstream of b, transfer functions
// max_{a->b}(x) (most items that can appear on b given x items on a) and
// min_{a->b}(x) (fewest items needed on a to put x items on b), and builds
// message-delivery semantics, deadlock detection and overflow detection on
// top of them.  Equivalently, in actor-firing space this is the StreamIt
// sdep relation: sdep_{u<-d}(n) = the minimum number of firings of upstream
// actor u required before downstream actor d can complete n firings.
//
// We compute sdep exactly by demand-driven ("pull") simulation of the flat
// graph -- each firing of d pulls the minimal transitive firings of its
// producers -- and store one steady-state period plus the initialization
// transient; values beyond the table follow from the periodicity
// sdep(n + k*reps_d) = sdep(n) + k*reps_u, which holds in any SDF graph.

#include <cstdint>
#include <vector>

#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::sdep {

class SdepAnalysis {
 public:
  explicit SdepAnalysis(const runtime::FlatGraph& g);

  // True iff there is a directed path (along data flow, back edges included)
  // from a to b.
  [[nodiscard]] bool is_upstream_of(int a, int b) const;

  // Minimum firings of `upstream` needed for `downstream` to complete `n`
  // firings (n >= 0).  Throws if there is no directed path.
  [[nodiscard]] std::int64_t sdep(int upstream, int downstream,
                                  std::int64_t n) const;

  // Inverse direction: the largest n such that sdep(upstream, downstream, n)
  // <= m -- i.e. how many firings of `downstream` are enabled by m firings
  // of `upstream`.  (This is the max transfer function in firing space.)
  [[nodiscard]] std::int64_t max_firings(int upstream, int downstream,
                                         std::int64_t m) const;

  [[nodiscard]] const sched::Schedule& schedule() const { return sched_; }

 private:
  const runtime::FlatGraph& g_;
  sched::Schedule sched_;
  std::vector<std::vector<bool>> reach_;
  // table_[d][n-1][u] = firings of u after the n-th pull of d, for
  // n = 1 .. 2 * reps[d].  Built lazily per downstream actor.
  mutable std::vector<std::vector<std::vector<std::int64_t>>> table_;
  void build_table(int d) const;
};

// ---- tape-level transfer functions (the paper's closed forms) -----------------

// For a single filter with the given rates:
//   max(x) = push * floor((x - (peek-pop)) / pop)  for x >= peek-pop, else 0
//   min(x) = ceil(x / push) * pop + (peek - pop)
std::int64_t filter_max_transfer(int peek, int pop, int push, std::int64_t x);
std::int64_t filter_min_transfer(int peek, int pop, int push, std::int64_t x);

// ---- program verification -----------------------------------------------------

struct LoopCheck {
  bool deadlock{false};
  bool overflow{false};
  std::string loop_name;
};

// Check every feedback loop: with delay d, the wavefront around the loop must
// return exactly x + d items (paper: maxloop(x) = x + delay; less means
// deadlock, more means unbounded buffer growth).  Checked by solving the
// graph's schedule once: `deadlock` is set on every loop when make_schedule
// throws (inconsistent rates, or an init / steady epoch the delays cannot
// sustain -- one solve does not say which loop is at fault), and `overflow`
// when a back edge's steady production differs from its consumption, which
// the balance equations rule out whenever a schedule exists.
std::vector<LoopCheck> check_feedback_loops(const runtime::FlatGraph& g);

// Check every splitter/joiner pair: branch production must stay within O(1)
// of each other or an intermediate buffer grows without bound.  In a valid
// SDF schedule this holds by the balance equations; this reports any edge
// whose buffer bound exceeds `limit` as suspicious.
std::vector<std::string> check_buffer_bounds(const runtime::FlatGraph& g,
                                             std::int64_t limit);

}  // namespace sit::sdep
