#include "linear/optimize.h"

#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "linear/combine.h"
#include "linear/cost.h"
#include "linear/extract.h"
#include "linear/frequency.h"
#include "obs/costmodel.h"

namespace sit::linear {

using ir::Node;
using ir::NodeP;

namespace {

// One realization of a subtree, chosen by the selection DP, with its modeled
// cost.  Plans are costed without building ir nodes; materialize() builds the
// selected plan once, after selection.
struct Plan;
using PlanP = std::shared_ptr<const Plan>;

struct Plan {
  enum class Kind {
    Node,    // an ir node: a leaf, or a split-join / feedback loop built from
             // its children's plans (`parts`)
    Split,   // a pipeline interval as two halves: parts = {left, right}
    Direct,  // the collapsed matrix filter computing `rep`
    Freq,    // the frequency-domain filter computing `rep` at FFT size `fft`
  };
  Kind kind{Kind::Node};
  NodeCost cost;        // over the realization's own minimal steady state
  double cpi{0.0};      // cost.per_item(sync_weight)
  bool changed{false};  // differs from the original subtree
  NodeP node;           // Node
  std::vector<PlanP> parts;              // Split; children of a built Node
  std::string site;                      // Split: pipeline name; else site
  std::shared_ptr<const LinearRep> rep;  // Direct, Freq
  std::size_t fft{0};                    // Freq
};

struct Best {
  PlanP plan;                            // cheapest realization
  std::shared_ptr<const LinearRep> rep;  // subtree's linear rep, if any
};

// Cost of a lone filter node `actor` with the given per-firing work: what
// node_cost() reports for it (one firing per steady state).
NodeCost single_actor_cost(double flops, double ops, int pop, int push,
                           const std::string& actor) {
  NodeCost c;
  c.flops_per_ss = flops;
  c.ops_per_ss = ops;
  c.in_per_ss = pop;
  c.out_per_ss = push;
  double measured = 0.0;
  if (obs::cost_model().measured_cycles_per_fire(actor, &measured)) {
    c.meas_ops_per_ss = measured;
    c.measured_actors = 1;
  } else {
    c.meas_ops_per_ss = ops;
  }
  return c;
}

// Cost of `l` followed by `r` in one pipeline, at the minimal steady state:
// with g = lcm(out_l, in_r), `l` runs g/out_l and `r` g/in_r of its own
// steady states.  Halves that exchange no data (a sink followed by a
// source) are costed at one steady state each; node_cost() of such a
// disconnected pipeline may scale its components differently.
NodeCost then(const NodeCost& l, const NodeCost& r) {
  std::int64_t a = 1;
  std::int64_t b = 1;
  if (l.out_per_ss > 0 && r.in_per_ss > 0) {
    const std::int64_t g = std::lcm(l.out_per_ss, r.in_per_ss);
    a = g / l.out_per_ss;
    b = g / r.in_per_ss;
  }
  const auto da = static_cast<double>(a);
  const auto db = static_cast<double>(b);
  NodeCost c;
  c.flops_per_ss = da * l.flops_per_ss + db * r.flops_per_ss;
  c.ops_per_ss = da * l.ops_per_ss + db * r.ops_per_ss;
  c.sync_per_ss = da * l.sync_per_ss + db * r.sync_per_ss;
  c.meas_ops_per_ss = da * l.meas_ops_per_ss + db * r.meas_ops_per_ss;
  c.measured_actors = l.measured_actors + r.measured_actors;
  c.in_per_ss = a * l.in_per_ss;
  c.out_per_ss = b * r.out_per_ss;
  return c;
}

// Flatten nested pipelines produced by DP splits (cosmetic; semantics
// unchanged).
void collect(const NodeP& node, std::vector<NodeP>& out) {
  if (node->kind == Node::Kind::Pipeline) {
    for (const auto& c : node->children) out.push_back(c);
  } else {
    out.push_back(node);
  }
}

NodeP materialize(const Plan& p) {
  switch (p.kind) {
    case Plan::Kind::Node:
      return p.node;
    case Plan::Kind::Split: {
      std::vector<NodeP> parts;
      collect(materialize(*p.parts[0]), parts);
      collect(materialize(*p.parts[1]), parts);
      return ir::make_pipeline(p.site, parts);
    }
    case Plan::Kind::Direct:
      return ir::make_filter(to_filter(*p.rep, p.site + "_lin"));
    case Plan::Kind::Freq:
      return make_frequency_filter(*p.rep, p.site + "_freq", p.fft);
  }
  throw std::logic_error("unreachable");
}

// Count the rewrites a plan materializes.
void count_rewrites(const Plan& p, OptimizeStats& stats) {
  if (p.kind == Plan::Kind::Direct) ++stats.combinations;
  if (p.kind == Plan::Kind::Freq) ++stats.frequency_nodes;
  for (const PlanP& c : p.parts) count_rewrites(*c, stats);
}

class Optimizer {
 public:
  Optimizer(const OptimizeOptions& opts, OptimizeStats* stats)
      : opts_(opts), stats_(stats) {}

  Best run(const NodeP& n) {
    switch (n->kind) {
      case Node::Kind::Filter:
        return leaf_filter(n);
      case Node::Kind::Native:
        return leaf_native(n);
      case Node::Kind::Pipeline:
        return pipeline(n);
      case Node::Kind::SplitJoin:
        return splitjoin(n);
      case Node::Kind::FeedbackLoop:
        return feedback(n);
    }
    throw std::logic_error("unreachable");
  }

 private:
  void refuse(const std::string& pass, const std::string& site,
              const std::string& why) {
    if (stats_) stats_->records.push_back({pass, site, 0.0, 0.0, false, why});
  }

  void select(const std::string& pass, const std::string& site, double before,
              double after) {
    if (stats_) stats_->records.push_back({pass, site, before, after, true, {}});
  }

  PlanP plan(Plan p) const {
    p.cpi = p.cost.per_item(opts_.sync_weight);
    return std::make_shared<const Plan>(std::move(p));
  }

  // An ir node as it stands (a leaf, or a node built from selected plans),
  // costed once.
  PlanP node_plan(NodeP node, bool changed, std::vector<PlanP> parts = {}) const {
    Plan p;
    p.cost = node_cost(node);
    p.changed = changed;
    p.node = std::move(node);
    p.parts = std::move(parts);
    return plan(std::move(p));
  }

  PlanP linear_plan(Plan::Kind kind, const std::shared_ptr<const LinearRep>& rep,
                    const std::string& site, std::size_t fft) const {
    Plan p;
    p.kind = kind;
    if (kind == Plan::Kind::Direct) {
      const runtime::OpCounts w = direct_work(*rep);
      p.cost = single_actor_cost(w.total_flops(), w.weighted(), rep->pop,
                                 rep->push, site + "_lin");
    } else {
      const FrequencyShape f = frequency_shape(*rep, fft);
      p.cost = single_actor_cost(f.cost_flops, f.cost_ops, f.pop, f.push,
                                 site + "_freq");
    }
    p.changed = true;
    p.site = site;
    p.rep = rep;
    p.fft = fft;
    return plan(std::move(p));
  }

  [[nodiscard]] bool rep_too_big(const LinearRep& r) const {
    return static_cast<std::size_t>(r.peek) * static_cast<std::size_t>(r.push) >
           opts_.max_matrix_entries;
  }

  // Consider replacing a (sub)tree that has linear rep `rep` by a direct
  // collapsed filter or a frequency version; returns the better of the two
  // if it beats `structural_cpi`, else null.
  PlanP linear_candidates(const std::shared_ptr<const LinearRep>& rep,
                          const std::string& name, double structural_cpi) {
    const double entry_cpi = structural_cpi;
    PlanP best;
    if (opts_.enable_combination && !rep_too_big(*rep)) {
      PlanP direct = linear_plan(Plan::Kind::Direct, rep, name, 0);
      if (direct->cpi < structural_cpi) {
        select("combine", name, entry_cpi, direct->cpi);
        structural_cpi = direct->cpi;
        best = std::move(direct);
      }
    }
    if (opts_.enable_frequency && frequency_applicable(*rep)) {
      const std::size_t n = best_fft_size(*rep);
      if (n != 0) {
        PlanP freq = linear_plan(Plan::Kind::Freq, rep, name, n);
        if (freq->cpi < structural_cpi) {
          select("frequency", name, entry_cpi, freq->cpi);
          best = std::move(freq);
        }
      }
    }
    return best;
  }

  Best leaf_filter(const NodeP& n) {
    if (stats_) ++stats_->total_filters;
    Best b{node_plan(n, false), nullptr};
    ExtractResult ex = extract(n->filter);
    if (ex.rep) {
      if (stats_) ++stats_->linear_filters;
      b.rep = std::make_shared<const LinearRep>(std::move(*ex.rep));
      // A lone linear filter is only rewritten if the frequency (or direct
      // matrix) form is cheaper than its own code.
      if (PlanP cand = linear_candidates(b.rep, n->name, b.plan->cpi)) {
        b.plan = std::move(cand);
      }
    } else {
      refuse("extract", n->name, "not linear: " + ex.reason);
    }
    return b;
  }

  Best leaf_native(const NodeP& n) {
    if (stats_) ++stats_->total_filters;
    return Best{node_plan(n, false), nullptr};
  }

  Best pipeline(const NodeP& n) {
    const std::size_t k = n->children.size();
    // Interval DP.  best[i][j] = cheapest realization of children i..j.
    std::vector<std::vector<Best>> best(k, std::vector<Best>(k));
    for (std::size_t i = 0; i < k; ++i) best[i][i] = run(n->children[i]);

    for (std::size_t len = 2; len <= k; ++len) {
      for (std::size_t i = 0; i + len - 1 < k; ++i) {
        const std::size_t j = i + len - 1;
        // Structural: best split point, costed by composing the halves.
        std::size_t split = i;
        NodeCost split_cost;
        double best_cpi = 1e300;
        for (std::size_t s = i; s < j; ++s) {
          const NodeCost c =
              then(best[i][s].plan->cost, best[s + 1][j].plan->cost);
          const double cpi = c.per_item(opts_.sync_weight);
          if (cpi < best_cpi) {
            best_cpi = cpi;
            split = s;
            split_cost = c;
          }
        }
        Plan p;
        p.kind = Plan::Kind::Split;
        p.cost = split_cost;
        p.parts = {best[i][split].plan, best[split + 1][j].plan};
        p.changed = p.parts[0]->changed || p.parts[1]->changed;
        p.site = n->name;
        Best b{plan(std::move(p)), nullptr};
        // Interval linear rep (if the whole interval is linear).
        if (best[i][j - 1].rep && best[j][j].rep) {
          try {
            LinearRep r = combine_pipeline(*best[i][j - 1].rep, *best[j][j].rep);
            if (!rep_too_big(r)) {
              b.rep = std::make_shared<const LinearRep>(std::move(r));
            }
          } catch (const std::exception&) {
            // Degenerate rates: interval not combinable.
          }
        }
        if (b.rep) {
          if (PlanP cand = linear_candidates(b.rep, interval_name(n, i, j),
                                             b.plan->cpi)) {
            b.plan = std::move(cand);
          }
        }
        best[i][j] = std::move(b);
      }
    }
    return best[0][k - 1];
  }

  static std::string interval_name(const NodeP& n, std::size_t i, std::size_t j) {
    std::ostringstream os;
    os << n->name << "[" << i << ".." << j << "]";
    return os.str();
  }

  Best splitjoin(const NodeP& n) {
    bool all_linear = true;
    bool changed = false;
    std::vector<PlanP> kids;
    std::vector<NodeP> child_nodes;
    std::vector<LinearRep> child_reps;
    for (const auto& c : n->children) {
      Best b = run(c);
      changed = changed || b.plan->changed;
      if (b.rep) {
        child_reps.push_back(*b.rep);
      } else {
        all_linear = false;
      }
      child_nodes.push_back(materialize(*b.plan));
      kids.push_back(std::move(b.plan));
    }
    Best result{node_plan(ir::make_splitjoin(n->name, n->split, n->join,
                                             child_nodes),
                          changed, std::move(kids)),
                nullptr};

    if (all_linear && n->split.kind != ir::SJKind::Null &&
        n->join.kind == ir::SJKind::RoundRobin) {
      try {
        LinearRep r = combine_splitjoin(n->split, child_reps, n->join.weights);
        if (!rep_too_big(r)) {
          result.rep = std::make_shared<const LinearRep>(std::move(r));
          if (PlanP cand =
                  linear_candidates(result.rep, n->name, result.plan->cpi)) {
            result.plan = std::move(cand);
          }
        }
      } catch (const std::exception& e) {
        refuse("combine", n->name,
               std::string("splitjoin not combinable: ") + e.what());
      }
    }
    return result;
  }

  Best feedback(const NodeP& n) {
    PlanP body = run(n->children[0]).plan;
    PlanP loop = run(n->children[1]).plan;
    const bool changed = body->changed || loop->changed;
    NodeP node = ir::make_feedback(n->name, n->join, materialize(*body), n->split,
                                   materialize(*loop), n->delay, n->init_path);
    return Best{node_plan(std::move(node), changed, {body, loop}), nullptr};
  }

  const OptimizeOptions& opts_;
  OptimizeStats* stats_;
};

}  // namespace

std::string RewriteRecord::to_string() const {
  std::ostringstream os;
  os << pass << " [" << site << "] ";
  if (applied) {
    os << "cost/item " << cost_before << " -> " << cost_after << " (selected)";
  } else {
    os << note;
  }
  return os.str();
}

std::string OptimizeStats::log() const {
  std::string out;
  for (const RewriteRecord& r : records) {
    out += "  " + r.to_string() + "\n";
  }
  return out;
}

NodeP optimize_selection(const NodeP& root, const OptimizeOptions& opts,
                         OptimizeStats* stats) {
  // Leaves of the result come from this copy, so the input is never shared
  // or mutated; every other node is built from the selected plan.
  NodeP fresh = ir::clone(root);
  Optimizer opt(opts, stats);
  if (stats) stats->cost_before = node_cost(fresh).per_item(opts.sync_weight);
  const PlanP selected = opt.run(fresh).plan;
  if (stats) {
    stats->plan_cost = selected->cost;
    stats->cost_after = selected->cpi;
    count_rewrites(*selected, *stats);
  }
  return materialize(*selected);
}

std::optional<LinearRep> extract_tree(const NodeP& node,
                                      const OptimizeOptions& opts) {
  switch (node->kind) {
    case Node::Kind::Filter: {
      auto r = extract(node->filter);
      return r.rep;
    }
    case Node::Kind::Native:
      return std::nullopt;
    case Node::Kind::Pipeline: {
      std::vector<LinearRep> chain;
      for (const auto& c : node->children) {
        auto r = extract_tree(c, opts);
        if (!r) return std::nullopt;
        chain.push_back(std::move(*r));
      }
      try {
        return combine_pipeline(chain);
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    case Node::Kind::SplitJoin: {
      if (node->join.kind != ir::SJKind::RoundRobin ||
          node->split.kind == ir::SJKind::Null) {
        return std::nullopt;
      }
      std::vector<LinearRep> reps;
      for (const auto& c : node->children) {
        auto r = extract_tree(c, opts);
        if (!r) return std::nullopt;
        reps.push_back(std::move(*r));
      }
      try {
        return combine_splitjoin(node->split, reps, node->join.weights);
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    case Node::Kind::FeedbackLoop:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace sit::linear
