#include "analysis/sdf.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <string>

#include "analysis/verify.h"
#include "sched/rational.h"

namespace sit::analysis {

using runtime::FlatActor;
using runtime::FlatEdge;
using runtime::FlatGraph;
using sched::Rat;
using sched::Schedule;

namespace {

std::int64_t out_rate(const FlatGraph& g, const FlatEdge& e) {
  if (e.src < 0) return 0;
  return g.actors[static_cast<std::size_t>(e.src)]
      .out_rate[static_cast<std::size_t>(e.src_port)];
}

std::int64_t in_rate(const FlatGraph& g, const FlatEdge& e) {
  if (e.dst < 0) return 0;
  return g.actors[static_cast<std::size_t>(e.dst)]
      .in_rate[static_cast<std::size_t>(e.dst_port)];
}

// Peek-extra requirement of an edge's consumer (filters have one in-port).
std::int64_t peek_extra(const FlatGraph& g, const FlatEdge& e) {
  if (e.dst < 0) return 0;
  const FlatActor& a = g.actors[static_cast<std::size_t>(e.dst)];
  return a.is_filter() ? a.peek_extra : 0;
}

// "A -> B (n initial items), ..." over every back edge: where a feedback
// loop's missing slack lives.
std::string back_edges(const FlatGraph& g) {
  std::string edges;
  for (const FlatEdge& e : g.edges) {
    if (!e.back_edge) continue;
    if (!edges.empty()) edges += ", ";
    edges += g.actors[static_cast<std::size_t>(e.src)].name + " -> " +
             g.actors[static_cast<std::size_t>(e.dst)].name + " (" +
             std::to_string(e.initial_items.size()) + " initial items)";
  }
  return edges;
}

// Balance equations, propagated over the rationals from the first actor of
// each connected component, then scaled to the least positive integer
// vector.
bool solve_balance(const FlatGraph& g, Schedule& s,
                   std::vector<Diagnostic>& out) {
  const std::size_t n = g.actors.size();
  std::vector<Rat> r(n, Rat(0));
  std::vector<bool> seen(n, false);
  for (std::size_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    seen[start] = true;
    r[start] = Rat(1);
    std::vector<std::size_t> stack{start};
    while (!stack.empty()) {
      const std::size_t a = stack.back();
      stack.pop_back();
      const FlatActor& act = g.actors[a];
      for (const std::vector<int>* ports : {&act.in_edges, &act.out_edges}) {
        for (const int eid : *ports) {
          if (eid < 0) continue;
          const FlatEdge& e = g.edges[static_cast<std::size_t>(eid)];
          if (e.src < 0 || e.dst < 0) continue;
          const auto su = static_cast<std::size_t>(e.src);
          const auto sv = static_cast<std::size_t>(e.dst);
          const std::int64_t o = out_rate(g, e);
          const std::int64_t i = in_rate(g, e);
          if (o == 0 && i == 0) continue;
          if (o == 0 || i == 0) {
            out.push_back(verify_error(
                "V-RATES", g.actors[su].name + " -> " + g.actors[sv].name,
                "zero-rate endpoint on a channel that carries data",
                "producer rate " + std::to_string(o) + ", consumer rate " +
                    std::to_string(i)));
            return false;
          }
          const std::size_t other = (su == a) ? sv : su;
          const Rat want = (su == a) ? r[a] * Rat(o, i) : r[a] * Rat(i, o);
          if (!seen[other]) {
            seen[other] = true;
            r[other] = want;
            stack.push_back(other);
          } else if (r[other] != want) {
            out.push_back(verify_error(
                "V-RATES", g.actors[other].name,
                "inconsistent rates: no steady-state schedule exists",
                "balance equations require " + g.actors[other].name +
                    " to fire at two different relative rates"));
            return false;
          }
        }
      }
    }
  }

  std::int64_t l = 1;
  for (const Rat& x : r) l = std::lcm(l, x.den());
  s.reps.assign(n, 0);
  std::int64_t gall = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.reps[i] = r[i].num() * (l / r[i].den());
    if (s.reps[i] <= 0) {
      out.push_back(verify_error("V-RATES", g.actors[i].name,
                                 "non-positive steady-state multiplicity"));
      return false;
    }
    gall = std::gcd(gall, s.reps[i]);
  }
  for (auto& x : s.reps) x /= gall;
  return true;
}

// Init epoch: worklist relaxation of firing requirements.  Each round
// propagates init demand one edge upstream; a round count past the cap
// means demand grows on every trip around a feedback loop whose delay
// cannot cover it.
bool relax_init(const FlatGraph& g, Schedule& s, std::vector<Diagnostic>& out) {
  const std::size_t n = g.actors.size();
  s.init_fires.assign(n, 0);
  const std::int64_t cap = static_cast<std::int64_t>(n) * 64 + 1024;
  bool changed = true;
  for (std::int64_t rounds = 1; changed; ++rounds) {
    changed = false;
    if (rounds > cap) {
      const std::string edges = back_edges(g);
      out.push_back(verify_error(
          "V-SCHED", "<init schedule>",
          "initialization does not converge: feedback delay is too small "
          "for the loop's init demand",
          edges.empty() ? "no back edges found (pathological graph)"
                        : "back edges: " + edges));
      return false;
    }
    for (const FlatEdge& e : g.edges) {
      if (e.dst < 0) continue;
      const std::int64_t need =
          s.init_fires[static_cast<std::size_t>(e.dst)] * in_rate(g, e) +
          peek_extra(g, e) - static_cast<std::int64_t>(e.initial_items.size());
      if (need <= 0 || e.src < 0) continue;
      const std::int64_t o = out_rate(g, e);
      if (o == 0) {
        out.push_back(verify_error(
            "V-SCHED", g.actors[static_cast<std::size_t>(e.src)].name,
            "must provide initialization items but produces none",
            "downstream actor '" +
                g.actors[static_cast<std::size_t>(e.dst)].name + "' needs " +
                std::to_string(need) + " item(s) before its first firing"));
        return false;
      }
      const std::int64_t want = (need + o - 1) / o;
      auto& f = s.init_fires[static_cast<std::size_t>(e.src)];
      if (want > f) {
        f = want;
        changed = true;
      }
    }
  }
  return true;
}

// One epoch of the executors' data-driven sweep: walk `s.order`, firing each
// actor while its quota and input levels allow, until nothing can fire.
// External input is modelled as always available; internal edge peaks are
// recorded per firing, where the channels sample their high-water marks.
// Returns the actors left with quota ("" when the epoch completes).
std::string run_epoch(const FlatGraph& g, const Schedule& s,
                      std::vector<std::int64_t> quota,
                      std::vector<std::int64_t>& level,
                      std::vector<std::int64_t>& high) {
  const auto can_fire = [&](const FlatActor& act) {
    for (std::size_t p = 0; p < act.in_edges.size(); ++p) {
      const int eid = act.in_edges[p];
      if (eid < 0 || g.edges[static_cast<std::size_t>(eid)].src < 0) continue;
      const std::int64_t want =
          act.in_rate[p] + (act.is_filter() ? act.peek_extra : 0);
      if (level[static_cast<std::size_t>(eid)] < want) return false;
    }
    return true;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (const int a : s.order) {
      const auto ai = static_cast<std::size_t>(a);
      const FlatActor& act = g.actors[ai];
      while (quota[ai] > 0 && can_fire(act)) {
        for (std::size_t p = 0; p < act.in_edges.size(); ++p) {
          const int eid = act.in_edges[p];
          if (eid < 0) continue;
          const auto ei = static_cast<std::size_t>(eid);
          if (g.edges[ei].src < 0) continue;
          level[ei] -= act.in_rate[p];
        }
        for (std::size_t p = 0; p < act.out_edges.size(); ++p) {
          const int eid = act.out_edges[p];
          if (eid < 0) continue;
          const auto ei = static_cast<std::size_t>(eid);
          if (g.edges[ei].dst < 0) continue;
          level[ei] += act.out_rate[p];
          high[ei] = std::max(high[ei], level[ei]);
        }
        --quota[ai];
        progress = true;
      }
    }
  }
  std::string stuck;
  for (std::size_t i = 0; i < quota.size(); ++i) {
    if (quota[i] <= 0) continue;
    if (!stuck.empty()) stuck += ", ";
    stuck += g.actors[i].name;
  }
  return stuck;
}

}  // namespace

std::optional<Schedule> solve_schedule(const FlatGraph& g,
                                       std::vector<Diagnostic>& out) {
  Schedule s;
  bool ok = solve_balance(g, s, out);
  try {
    s.order = g.topo_order();
  } catch (const std::exception& ex) {
    out.push_back(verify_error("V-ORDER", "<graph>",
                               "forward edges form a cycle: no topological "
                               "partition order exists",
                               ex.what()));
    ok = false;
  }
  if (!ok || !relax_init(g, s, out)) return std::nullopt;

  // Edge traffic and boundary rates.
  s.edge_traffic.assign(g.edges.size(), 0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const FlatEdge& e = g.edges[i];
    if (e.src >= 0) {
      s.edge_traffic[i] =
          s.reps[static_cast<std::size_t>(e.src)] * out_rate(g, e);
    } else if (e.dst >= 0) {
      s.edge_traffic[i] =
          s.reps[static_cast<std::size_t>(e.dst)] * in_rate(g, e);
    }
  }
  if (g.input_edge >= 0) {
    const FlatEdge& e = g.edges[static_cast<std::size_t>(g.input_edge)];
    const auto dst = static_cast<std::size_t>(e.dst);
    s.input_per_steady = s.reps[dst] * in_rate(g, e);
    s.input_for_init = s.init_fires[dst] * in_rate(g, e) + peek_extra(g, e);
  }
  if (g.output_edge >= 0) {
    const FlatEdge& e = g.edges[static_cast<std::size_t>(g.output_edge)];
    s.output_per_steady =
        s.reps[static_cast<std::size_t>(e.src)] * out_rate(g, e);
  }

  // Liveness and buffer bounds: the init epoch, then two steady epochs.
  std::vector<std::int64_t> level(g.edges.size(), 0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    level[i] = static_cast<std::int64_t>(g.edges[i].initial_items.size());
  }
  std::vector<std::int64_t> high = level;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::string stuck =
        run_epoch(g, s, epoch == 0 ? s.init_fires : s.reps, level, high);
    if (stuck.empty()) continue;
    const std::string edges = back_edges(g);
    out.push_back(verify_error(
        "V-SCHED", epoch == 0 ? "<init schedule>" : "<steady schedule>",
        epoch == 0 ? "initialization deadlocks: feedback delay enqueues fewer "
                     "items than the init epoch consumes"
                   : "steady state deadlocks: feedback delay enqueues fewer "
                     "items than the loop consumes per epoch",
        "stuck actors: " + stuck +
            (edges.empty() ? "" : "; back edges: " + edges)));
    return std::nullopt;
  }
  s.buffer_bound = std::move(high);
  return s;
}

}  // namespace sit::analysis
