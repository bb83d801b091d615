#include "sdep/sdep.h"

#include <optional>
#include <stdexcept>

namespace sit::sdep {

using runtime::FlatActor;
using runtime::FlatGraph;

namespace {

// Count-only pull simulator: fires actors minimally so that a designated
// actor can fire; this realizes the paper's "information wavefront" exactly.
class PullSim {
 public:
  explicit PullSim(const FlatGraph& g) : g_(g) {
    level_.resize(g.edges.size());
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      level_[i] = static_cast<std::int64_t>(g.edges[i].initial_items.size());
    }
    fired_.assign(g.actors.size(), 0);
  }

  // Fire `a` once, recursively pulling minimal producer firings first.
  void fire_min(int a, int depth = 0) {
    if (depth > 1 << 20) {
      throw std::runtime_error("pull simulation does not terminate (deadlock)");
    }
    const FlatActor& act = g_.actors[static_cast<std::size_t>(a)];
    for (std::size_t p = 0; p < act.in_edges.size(); ++p) {
      const int eid = act.in_edges[p];
      if (eid < 0) continue;
      const auto& e = g_.edges[static_cast<std::size_t>(eid)];
      if (e.src < 0) continue;  // external input is unbounded
      std::int64_t want = act.in_rate[p];
      if (act.is_filter()) want += act.peek_extra;
      while (level_[static_cast<std::size_t>(eid)] < want) {
        fire_min(e.src, depth + 1);
      }
    }
    // Consume and produce.
    for (std::size_t p = 0; p < act.in_edges.size(); ++p) {
      const int eid = act.in_edges[p];
      if (eid < 0) continue;
      if (g_.edges[static_cast<std::size_t>(eid)].src < 0) continue;
      level_[static_cast<std::size_t>(eid)] -= act.in_rate[p];
    }
    for (std::size_t p = 0; p < act.out_edges.size(); ++p) {
      const int eid = act.out_edges[p];
      if (eid < 0) continue;
      if (g_.edges[static_cast<std::size_t>(eid)].dst < 0) continue;
      level_[static_cast<std::size_t>(eid)] += act.out_rate[p];
    }
    ++fired_[static_cast<std::size_t>(a)];
  }

  [[nodiscard]] const std::vector<std::int64_t>& fired() const { return fired_; }

 private:
  const FlatGraph& g_;
  std::vector<std::int64_t> level_;
  std::vector<std::int64_t> fired_;
};

}  // namespace

SdepAnalysis::SdepAnalysis(const FlatGraph& g)
    : g_(g), sched_(sched::make_schedule(g)) {
  const std::size_t n = g.actors.size();
  reach_.assign(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) reach_[i][i] = true;
  // Transitive closure over all edges (including back edges: data flows
  // around the loop).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& e : g.edges) {
      if (e.src < 0 || e.dst < 0) continue;
      const auto s = static_cast<std::size_t>(e.src);
      const auto d = static_cast<std::size_t>(e.dst);
      for (std::size_t i = 0; i < n; ++i) {
        if (reach_[i][s] && !reach_[i][d]) {
          reach_[i][d] = true;
          changed = true;
        }
      }
    }
  }
  table_.resize(n);
}

bool SdepAnalysis::is_upstream_of(int a, int b) const {
  return reach_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

void SdepAnalysis::build_table(int d) const {
  auto& tab = table_[static_cast<std::size_t>(d)];
  if (!tab.empty()) return;
  PullSim sim(g_);
  const std::int64_t period = sched_.reps[static_cast<std::size_t>(d)];
  const std::int64_t rows = 2 * period;
  tab.reserve(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    sim.fire_min(d);
    tab.push_back(sim.fired());
  }
}

std::int64_t SdepAnalysis::sdep(int upstream, int downstream,
                                std::int64_t n) const {
  if (!is_upstream_of(upstream, downstream)) {
    throw std::invalid_argument("sdep: actors are not on a directed path");
  }
  if (n <= 0) return 0;
  build_table(downstream);
  const auto& tab = table_[static_cast<std::size_t>(downstream)];
  const std::int64_t period = sched_.reps[static_cast<std::size_t>(downstream)];
  const std::int64_t up_period = sched_.reps[static_cast<std::size_t>(upstream)];
  // Use the second period for extrapolation (the first may include the
  // initialization transient).
  if (n <= static_cast<std::int64_t>(tab.size())) {
    return tab[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(upstream)];
  }
  // n = base + k*period with base in (period, 2*period].
  std::int64_t k = (n - period - 1) / period;
  const std::int64_t base = n - k * period;
  return tab[static_cast<std::size_t>(base - 1)][static_cast<std::size_t>(upstream)] +
         k * up_period;
}

std::int64_t SdepAnalysis::max_firings(int upstream, int downstream,
                                       std::int64_t m) const {
  // Largest n with sdep(n) <= m; sdep is nondecreasing, so binary search.
  std::int64_t lo = 0;
  std::int64_t hi = 1;
  while (sdep(upstream, downstream, hi) <= m) {
    hi *= 2;
    if (hi > (std::int64_t{1} << 40)) break;
  }
  while (lo < hi) {
    const std::int64_t mid = (lo + hi + 1) / 2;
    if (sdep(upstream, downstream, mid) <= m) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// ---- closed forms ---------------------------------------------------------------

std::int64_t filter_max_transfer(int peek, int pop, int push, std::int64_t x) {
  const std::int64_t extra = peek - pop;
  if (x < extra) return 0;
  return static_cast<std::int64_t>(push) * ((x - extra) / pop);
}

std::int64_t filter_min_transfer(int peek, int pop, int push, std::int64_t x) {
  if (x <= 0) return 0;
  const std::int64_t fires = (x + push - 1) / push;
  return fires * pop + (peek - pop);
}

// ---- verification -----------------------------------------------------------------

std::vector<LoopCheck> check_feedback_loops(const FlatGraph& g) {
  // One schedule answers every loop: make_schedule throws when the rates are
  // inconsistent or the init epoch or a steady state cannot complete.
  std::optional<sched::Schedule> s;
  try {
    s = sched::make_schedule(g);
  } catch (const std::exception&) {
  }
  std::vector<LoopCheck> out;
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    const auto& back = g.edges[ei];
    if (!back.back_edge) continue;
    LoopCheck chk;
    chk.loop_name = g.actors[static_cast<std::size_t>(back.dst)].name;
    chk.deadlock = !s;
    if (s) {
      // Overflow: net growth of the back edge per steady state must be zero.
      const auto dst = static_cast<std::size_t>(back.dst);
      const std::int64_t cons =
          s->reps[dst] *
          g.actors[dst].in_rate[static_cast<std::size_t>(back.dst_port)];
      chk.overflow = s->edge_traffic[ei] != cons;
    }
    out.push_back(chk);
  }
  return out;
}

std::vector<std::string> check_buffer_bounds(const FlatGraph& g,
                                             std::int64_t limit) {
  std::vector<std::string> out;
  try {
    const auto s = sched::make_schedule(g);
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      if (s.buffer_bound[e] > limit) {
        const std::string src =
            g.edges[e].src >= 0 ? g.actors[static_cast<std::size_t>(g.edges[e].src)].name
                                : "<input>";
        const std::string dst =
            g.edges[e].dst >= 0 ? g.actors[static_cast<std::size_t>(g.edges[e].dst)].name
                                : "<output>";
        out.push_back(src + " -> " + dst + " needs " +
                      std::to_string(s.buffer_bound[e]) + " items");
      }
    }
  } catch (const std::exception& ex) {
    out.push_back(std::string("unschedulable: ") + ex.what());
  }
  return out;
}

}  // namespace sit::sdep
