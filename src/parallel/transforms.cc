#include "parallel/transforms.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "linear/cost.h"
#include "linear/extract.h"
#include "sched/schedule.h"

namespace sit::parallel {

using ir::Node;
using ir::NodeP;

bool leaf_stateful(const Node& leaf) {
  if (leaf.kind == Node::Kind::Filter) {
    return linear::writes_state(leaf.filter);
  }
  if (leaf.kind == Node::Kind::Native) {
    return leaf.native.stateful;
  }
  return false;
}

bool subtree_stateful(const NodeP& node) {
  bool s = false;
  ir::visit(node, [&](const NodeP& n) {
    if (n->is_leaf() && leaf_stateful(*n)) s = true;
    if (n->kind == Node::Kind::FeedbackLoop) s = true;  // loop state
  });
  return s;
}

bool subtree_peeks(const NodeP& node) {
  bool p = false;
  ir::visit(node, [&](const NodeP& n) {
    if (n->kind == Node::Kind::Filter && n->filter.does_peek()) p = true;
    if (n->kind == Node::Kind::Native && n->native.does_peek()) p = true;
  });
  return p;
}

// ---- fission ------------------------------------------------------------------

namespace {

int leaf_pop(const Node& leaf) {
  return leaf.kind == Node::Kind::Filter ? leaf.filter.pop : leaf.native.pop;
}
int leaf_peek(const Node& leaf) {
  return leaf.kind == Node::Kind::Filter ? leaf.filter.peek : leaf.native.peek;
}
int leaf_push(const Node& leaf) {
  return leaf.kind == Node::Kind::Filter ? leaf.filter.push : leaf.native.push;
}

// Input adapter presenting a window of the duplicated stream shifted by
// `offset`: a native replica computes the original filter's firing at that
// offset, consuming nothing until the wrapper pops the full stride.
class OffsetIn final : public ir::InTape {
 public:
  OffsetIn(ir::InTape& in, int offset) : in_(in), offset_(offset) {}
  double peek_item(int i) override { return in_.peek_item(offset_ + pops_ + i); }
  double pop_item() override { return in_.peek_item(offset_ + pops_++); }

 private:
  ir::InTape& in_;
  int offset_;
  int pops_{0};
};

// Replica `idx` of a k-way peeking fission (rates and work: see fiss in
// transforms.h).  An AST replica says its decimation in the language itself,
// so the executor compiles it like any other filter.
NodeP make_replica(const NodeP& leaf, int k, int idx) {
  const int pop = leaf_pop(*leaf);
  const int stride = k * pop;
  const int peek = stride + (leaf_peek(*leaf) - pop);
  NodeP r = ir::clone(leaf);
  r->name = leaf->name + "_rep" + std::to_string(idx);
  if (r->kind == Node::Kind::Filter) {
    ir::FilterSpec& f = r->filter;
    f.name = r->name;
    f.pop = stride;
    f.peek = peek;
    std::vector<ir::StmtP> body;
    if (idx > 0) body.push_back(ir::pop_n(ir::iconst(idx * pop)));
    body.push_back(f.work);
    if (idx < k - 1) body.push_back(ir::pop_n(ir::iconst((k - 1 - idx) * pop)));
    f.work = ir::block(std::move(body));
    return r;
  }
  ir::NativeFilter& nf = r->native;
  nf.name = r->name;
  nf.pop = stride;
  nf.peek = peek;
  nf.cost_ops += 2.0 * static_cast<double>(stride);  // discarding the stride
  nf.work = [work = leaf->native.work, offset = idx * pop, stride](
                ir::NativeState* state, ir::InTape& in, ir::OutTape& out) {
    OffsetIn shifted(in, offset);
    work(state, shifted, out);
    in.pop_many(stride);
  };
  return r;
}

}  // namespace

NodeP fiss(const NodeP& leaf, int k) {
  if (!leaf->is_leaf()) throw std::invalid_argument("fiss expects a leaf");
  if (leaf_stateful(*leaf)) {
    throw std::invalid_argument("cannot fiss stateful filter '" + leaf->name + "'");
  }
  if (k < 2) return ir::clone(leaf);
  const int pop = leaf_pop(*leaf);
  const int peek = leaf_peek(*leaf);
  const int push = leaf_push(*leaf);
  if (pop == 0 || push == 0) {
    throw std::invalid_argument("cannot fiss boundary filter '" + leaf->name + "'");
  }

  std::vector<NodeP> replicas;
  replicas.reserve(static_cast<std::size_t>(k));
  if (peek == pop) {
    // Clean round-robin fission.
    for (int i = 0; i < k; ++i) {
      NodeP c = ir::clone(leaf);
      c->name = leaf->name + "_fiss" + std::to_string(i);
      if (c->kind == Node::Kind::Filter) c->filter.name = c->name;
      if (c->kind == Node::Kind::Native) c->native.name = c->name;
      replicas.push_back(std::move(c));
    }
    return ir::make_splitjoin(
        leaf->name + "_fissed",
        ir::roundrobin_split(std::vector<int>(static_cast<std::size_t>(k), pop)),
        ir::roundrobin_join(std::vector<int>(static_cast<std::size_t>(k), push)),
        std::move(replicas));
  }

  // Peeking fission: duplicate the stream, decimate per replica.
  for (int i = 0; i < k; ++i) replicas.push_back(make_replica(leaf, k, i));
  return ir::make_splitjoin(
      leaf->name + "_fissed", ir::duplicate_split(),
      ir::roundrobin_join(std::vector<int>(static_cast<std::size_t>(k), push)),
      std::move(replicas));
}

// ---- coarsening ----------------------------------------------------------------

namespace {

// True if the subtree contains an I/O endpoint (a pure source or sink).
// Coarsening must not absorb endpoints: a fused region containing the sink
// has push == 0 and could never be fissed (and the paper's compiler leaves
// file filters out of fused regions altogether).
bool contains_endpoint(const NodeP& n) {
  bool found = false;
  ir::visit(n, [&](const NodeP& c) {
    if (c->kind == Node::Kind::Filter &&
        (c->filter.is_source() || c->filter.is_sink())) {
      found = true;
    }
    if (c->kind == Node::Kind::Native &&
        (c->native.pop == 0 || c->native.push == 0)) {
      found = true;
    }
  });
  return found;
}

bool fusable_stateless(const NodeP& n) {
  return !subtree_stateful(n) && !subtree_peeks(n) && !contains_endpoint(n);
}

void collect_pipeline_children(const NodeP& n, std::vector<NodeP>& out) {
  if (n->kind == Node::Kind::Pipeline) {
    for (const auto& c : n->children) collect_pipeline_children(c, out);
  } else {
    out.push_back(n);
  }
}

// Names the fused segments of one top-level transform call: `<base><tag><N>`
// with N counting from 0 within the call, skipping any name a leaf of the
// input tree already carries.  Compiling one graph twice therefore yields the
// same actor names (cost profiles match by name), and concurrent compiles
// share no counter.
class FuseNamer {
 public:
  explicit FuseNamer(const NodeP& root) {
    ir::visit(root, [this](const NodeP& n) {
      if (n->is_leaf()) taken_.insert(n->name);
    });
  }

  std::string operator()(const std::string& base, const char* tag) {
    std::string name;
    do {
      name = base + tag + std::to_string(next_++);
    } while (!taken_.insert(name).second);
    return name;
  }

 private:
  std::set<std::string> taken_;
  int next_{0};
};

NodeP coarsen_stateless(const NodeP& root, FuseNamer& namer) {
  switch (root->kind) {
    case Node::Kind::Filter:
    case Node::Kind::Native:
      return root;
    case Node::Kind::SplitJoin: {
      if (fusable_stateless(root) && root->split.kind != ir::SJKind::Null &&
          root->join.kind != ir::SJKind::Null) {
        return fuse_subtree(root, namer(root->name, "_coarse"));
      }
      std::vector<NodeP> kids;
      for (const auto& c : root->children) {
        kids.push_back(coarsen_stateless(c, namer));
      }
      return ir::make_splitjoin(root->name, root->split, root->join, kids);
    }
    case Node::Kind::FeedbackLoop:
      return ir::make_feedback(root->name, root->join,
                               coarsen_stateless(root->children[0], namer),
                               root->split,
                               coarsen_stateless(root->children[1], namer),
                               root->delay, root->init_path);
    case Node::Kind::Pipeline: {
      std::vector<NodeP> kids;
      for (const auto& c : root->children) {
        std::vector<NodeP> flat;
        collect_pipeline_children(coarsen_stateless(c, namer), flat);
        for (auto& f : flat) kids.push_back(std::move(f));
      }
      // Fuse maximal stateless non-peeking runs.
      std::vector<NodeP> out;
      std::size_t i = 0;
      while (i < kids.size()) {
        if (!fusable_stateless(kids[i])) {
          out.push_back(kids[i]);
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j + 1 < kids.size() && fusable_stateless(kids[j + 1])) ++j;
        if (j > i) {
          std::vector<NodeP> run(kids.begin() + static_cast<long>(i),
                                 kids.begin() + static_cast<long>(j + 1));
          out.push_back(fuse_subtree(ir::make_pipeline(root->name + "_run", run),
                                     namer(root->name, "_coarse")));
        } else {
          out.push_back(kids[i]);
        }
        i = j + 1;
      }
      if (out.size() == 1) return out[0];
      return ir::make_pipeline(root->name, out);
    }
  }
  throw std::logic_error("unreachable");
}

}  // namespace

NodeP coarsen_stateless(const NodeP& root) {
  FuseNamer namer(root);
  return coarsen_stateless(root, namer);
}

// ---- selective fusion ------------------------------------------------------------

namespace {

// Work (cycles) of each leaf per *global* steady state of `root`.  Weights
// come from the calibrated cost model when one is loaded (matched by flat
// actor name, static estimate as fallback), so the fusion ordering and the
// fission gate below both follow measured costs once a profile is active.
std::map<const Node*, double> global_leaf_work(const NodeP& root) {
  const runtime::FlatGraph g = runtime::flatten(root);
  const sched::Schedule s = sched::make_schedule(g);
  std::map<const Node*, double> w;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].is_filter()) {
      w[g.actors[i].node] =
          static_cast<double>(s.reps[i]) *
          linear::calibrated_ops_per_firing(*g.actors[i].node,
                                            g.actors[i].name);
    }
  }
  return w;
}

double subtree_work(const NodeP& n, const std::map<const Node*, double>& w) {
  double t = 0.0;
  ir::visit(n, [&](const NodeP& c) {
    if (c->is_leaf()) {
      auto it = w.find(c.get());
      if (it != w.end()) t += it->second;
    }
  });
  return t;
}

// One greedy fusion step: fuse the cheapest adjacent pipeline pair or the
// cheapest whole splitjoin.  Returns false when no legal move exists.
bool fuse_cheapest(NodeP& root, FuseNamer& namer) {
  const auto work = global_leaf_work(root);

  struct Move {
    enum class Kind { None, PipelinePair, WholeSplitJoin, BranchPair };
    Kind kind{Kind::None};
    Node* node{nullptr};
    std::size_t index{0};  // pair start (pipeline children or SJ branches)
    double cost{std::numeric_limits<double>::max()};
  };
  Move best;

  std::function<void(NodeP&)> scan = [&](NodeP& n) {
    if (n->kind == Node::Kind::Pipeline) {
      for (std::size_t i = 0; i + 1 < n->children.size(); ++i) {
        const double c =
            subtree_work(n->children[i], work) + subtree_work(n->children[i + 1], work);
        if (c < best.cost) {
          best = Move{Move::Kind::PipelinePair, n.get(), i, c};
        }
      }
    }
    if (n->kind == Node::Kind::SplitJoin && n->split.kind != ir::SJKind::Null &&
        n->join.kind != ir::SJKind::Null) {
      if (ir::count_filters(n) > 1) {
        const double c = subtree_work(n, work);
        if (c < best.cost) {
          best = Move{Move::Kind::WholeSplitJoin, n.get(), 0, c};
        }
      }
      // Merging two adjacent branches (the space partitioner's main move:
      // it groups branches rather than collapsing the whole construct).
      if (n->children.size() > 2) {
        for (std::size_t i = 0; i + 1 < n->children.size(); ++i) {
          const double c = subtree_work(n->children[i], work) +
                           subtree_work(n->children[i + 1], work);
          if (c < best.cost) {
            best = Move{Move::Kind::BranchPair, n.get(), i, c};
          }
        }
      }
    }
    for (auto& c : n->children) scan(c);
  };
  scan(root);

  if (best.kind == Move::Kind::None) return false;

  std::function<bool(NodeP&)> apply = [&](NodeP& n) -> bool {
    if (n.get() == best.node) {
      auto& ch = n->children;
      switch (best.kind) {
        case Move::Kind::WholeSplitJoin:
          n = fuse_subtree(n, namer(n->name, "_sf"));
          break;
        case Move::Kind::PipelinePair: {
          NodeP pair = ir::make_pipeline(n->name + "_pair",
                                         {ch[best.index], ch[best.index + 1]});
          NodeP fused = fuse_subtree(pair, namer(n->name, "_sf"));
          ch[best.index] = fused;
          ch.erase(ch.begin() + static_cast<long>(best.index) + 1);
          if (ch.size() == 1 && n->children[0]->is_leaf()) n = ch[0];
          break;
        }
        case Move::Kind::BranchPair: {
          // Group branches i and i+1 into a two-branch sub-splitjoin, fuse
          // it, and merge the weights in the parent.
          const std::size_t i = best.index;
          ir::Splitter sub_split = n->split;
          ir::Joiner sub_join = n->join;
          if (n->split.kind == ir::SJKind::RoundRobin) {
            sub_split.weights = {n->split.weights[i], n->split.weights[i + 1]};
          }
          sub_join.weights = {n->join.weights[i], n->join.weights[i + 1]};
          NodeP pair = ir::make_splitjoin(n->name + "_grp", sub_split, sub_join,
                                          {ch[i], ch[i + 1]});
          NodeP fused = fuse_subtree(pair, namer(n->name, "_sf"));
          ch[i] = fused;
          ch.erase(ch.begin() + static_cast<long>(i) + 1);
          if (n->split.kind == ir::SJKind::RoundRobin) {
            n->split.weights[i] += n->split.weights[i + 1];
            n->split.weights.erase(n->split.weights.begin() + static_cast<long>(i) + 1);
          }
          n->join.weights[i] += n->join.weights[i + 1];
          n->join.weights.erase(n->join.weights.begin() + static_cast<long>(i) + 1);
          break;
        }
        case Move::Kind::None:
          break;
      }
      return true;
    }
    for (auto& c : n->children) {
      if (apply(c)) return true;
    }
    return false;
  };
  apply(root);
  return true;
}

}  // namespace

NodeP selective_fusion(const NodeP& root, int target_actors) {
  NodeP g = ir::clone(root);
  FuseNamer namer(g);
  while (ir::count_filters(g) > target_actors) {
    if (!fuse_cheapest(g, namer)) break;
  }
  return g;
}

// ---- data parallelism -------------------------------------------------------------

namespace {

NodeP fiss_leaves(const NodeP& n, int cores, double min_share, double total_work,
                  const std::map<const Node*, double>& work, bool coarse) {
  if (n->is_leaf()) {
    if (leaf_stateful(*n)) return n;
    if (leaf_pop(*n) == 0 || leaf_push(*n) == 0) return n;
    const auto it = work.find(n.get());
    const double share = (it != work.end() && total_work > 0)
                             ? it->second / total_work
                             : 0.0;
    if (coarse && share < min_share) return n;  // not worth the sync
    return fiss(n, cores);
  }
  if (n->kind == Node::Kind::Pipeline) {
    std::vector<NodeP> kids;
    for (const auto& c : n->children) {
      kids.push_back(fiss_leaves(c, cores, min_share, total_work, work, coarse));
    }
    return ir::make_pipeline(n->name, kids);
  }
  if (n->kind == Node::Kind::SplitJoin) {
    std::vector<NodeP> kids;
    for (const auto& c : n->children) {
      kids.push_back(fiss_leaves(c, cores, min_share, total_work, work, coarse));
    }
    return ir::make_splitjoin(n->name, n->split, n->join, kids);
  }
  // Feedback loops keep their structure (their body may still fiss inside).
  return ir::make_feedback(
      n->name, n->join,
      fiss_leaves(n->children[0], cores, min_share, total_work, work, coarse),
      n->split,
      fiss_leaves(n->children[1], cores, min_share, total_work, work, coarse),
      n->delay, n->init_path);
}

}  // namespace

NodeP data_parallelize(const NodeP& root, int cores, double min_work_share) {
  NodeP coarse = coarsen_stateless(ir::clone(root));
  const auto work = global_leaf_work(coarse);
  double total = 0.0;
  for (const auto& [node, w] : work) total += w;
  return fiss_leaves(coarse, cores, min_work_share, total, work, true);
}

NodeP fine_grained_parallelize(const NodeP& root, int cores) {
  NodeP g = ir::clone(root);
  const auto work = global_leaf_work(g);
  double total = 0.0;
  for (const auto& [node, w] : work) total += w;
  return fiss_leaves(g, cores, 0.0, total, work, false);
}

NodeP coarsen_for_threads(const NodeP& root, int threads, int max_actors) {
  if (threads <= 1) return ir::clone(root);
  NodeP g = ir::clone(root);
  // Actor budget first: a fine-grained graph (hundreds of leaves) would hand
  // the partitioner hundreds of ring crossings; a few actors per worker
  // keeps LPT flexible while the affinity pass still glues feathers.
  const int budget = max_actors > 0 ? max_actors : 4 * threads;
  if (ir::count_filters(g) > budget) g = selective_fusion(g, budget);
  // Coarsen-then-fiss with the cost gate at a quarter worker of modeled
  // work: anything lighter rides along with a neighbor instead of owning a
  // fission replica.
  return data_parallelize(g, threads, 0.25 / static_cast<double>(threads));
}

}  // namespace sit::parallel
