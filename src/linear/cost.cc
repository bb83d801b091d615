#include "linear/cost.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "obs/costmodel.h"
#include "runtime/channel.h"
#include "runtime/interp.h"
#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::linear {

namespace {

// Count AST nodes as a last-resort work proxy.
double ast_size(const ir::ExprP& e);

double ast_size(const ir::StmtP& s) {
  if (!s) return 0;
  double n = 1;
  for (const auto& c : s->stmts) n += ast_size(c);
  n += ast_size(s->index) + ast_size(s->value) + ast_size(s->cond) +
       ast_size(s->lo) + ast_size(s->hi);
  n += ast_size(s->body) + ast_size(s->elseBody);
  for (const auto& a : s->args) n += ast_size(a);
  return n;
}

double ast_size(const ir::ExprP& e) {
  if (!e) return 0;
  return 1 + ast_size(e->a) + ast_size(e->b) + ast_size(e->c);
}

// estimate_work's memo size below which expired entries are never swept.
constexpr std::size_t kMinSweep = 1024;

}  // namespace

runtime::OpCounts estimate_work(const ir::FilterSpec& spec) {
  // Memoize on the work AST without owning it.  An entry hits only while its
  // AST is alive: keying on a raw pointer alone would let a freed AST's
  // address be reused by a fresh allocation and serve a stale estimate.
  // Expired entries are swept whenever the map doubles, so the memo stays
  // bounded by the live ASTs instead of pinning every AST it ever saw.
  struct Entry {
    std::weak_ptr<const ir::Stmt> ast;
    runtime::OpCounts counts;
  };
  static std::map<const ir::Stmt*, Entry> cache;
  static std::size_t sweep_at = kMinSweep;
  static std::mutex mu;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(spec.work.get());
    if (it != cache.end() && !it->second.ast.expired()) {
      return it->second.counts;
    }
  }

  runtime::OpCounts counts;
  try {
    runtime::FilterState st = runtime::Interp::init_state(spec);
    runtime::Channel in, out;
    for (int i = 0; i < spec.peek + 1; ++i) in.push_item(1.0);
    runtime::Interp::run_work(spec, st, in, out, &counts);
  } catch (const std::exception&) {
    counts = runtime::OpCounts{};
    counts.flops = static_cast<std::int64_t>(ast_size(spec.work));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    if (cache.size() >= sweep_at) {
      std::erase_if(cache,
                    [](const auto& kv) { return kv.second.ast.expired(); });
      sweep_at = std::max(kMinSweep, 2 * cache.size());
    }
    cache[spec.work.get()] = Entry{spec.work, counts};
  }
  return counts;
}

runtime::OpCounts direct_work(const LinearRep& rep) {
  // Every nonzero coefficient is one trip of to_filter's row loops: the
  // loop's increment and bound compare, the coefficient load, the peek, the
  // multiply and the add into the accumulator.  Then one push per row and
  // the final pop_n.
  const auto nnz = static_cast<std::int64_t>(rep.A.nonzeros());
  runtime::OpCounts counts;
  counts.int_ops = 2 * nnz;
  counts.mem = nnz;
  counts.flops = 2 * nnz;
  counts.channel = nnz + rep.push + rep.pop;
  return counts;
}

double leaf_flops_per_firing(const ir::Node& leaf) {
  if (leaf.kind == ir::Node::Kind::Filter) {
    return estimate_work(leaf.filter).total_flops();
  }
  if (leaf.kind == ir::Node::Kind::Native) {
    return leaf.native.cost_flops;
  }
  return 0.0;
}

double leaf_ops_per_firing(const ir::Node& leaf) {
  if (leaf.kind == ir::Node::Kind::Filter) {
    return estimate_work(leaf.filter).weighted();
  }
  if (leaf.kind == ir::Node::Kind::Native) {
    return leaf.native.cost_ops;
  }
  return 0.0;
}

double calibrated_ops_per_firing(const ir::Node& leaf,
                                 const std::string& actor_name) {
  double measured = 0.0;
  if (obs::cost_model().measured_cycles_per_fire(actor_name, &measured)) {
    return measured;
  }
  return leaf_ops_per_firing(leaf);
}

NodeCost node_cost(const ir::NodeP& node) {
  const runtime::FlatGraph g = runtime::flatten(node);
  const sched::Schedule s = sched::make_schedule(g);
  const obs::CostModel& cm = obs::cost_model();
  NodeCost c;
  c.in_per_ss = s.input_per_steady;
  c.out_per_ss = s.output_per_steady;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    const auto& a = g.actors[i];
    const double reps = static_cast<double>(s.reps[i]);
    if (a.is_filter()) {
      const double stat = leaf_ops_per_firing(*a.node);
      c.flops_per_ss += reps * leaf_flops_per_firing(*a.node);
      c.ops_per_ss += reps * stat;
      double measured = 0.0;
      if (cm.measured_cycles_per_fire(a.name, &measured)) {
        c.meas_ops_per_ss += reps * measured;
        ++c.measured_actors;
      } else {
        c.meas_ops_per_ss += reps * stat;
      }
    } else {
      // A splitter/joiner firing moves its total weight in items.
      std::int64_t items = 0;
      for (int r : a.in_rate) items += r;
      for (int r : a.out_rate) items += r;
      c.sync_per_ss += reps * static_cast<double>(items);
    }
  }
  return c;
}

}  // namespace sit::linear
