#include <queue>
#include <sstream>
#include <stdexcept>

#include "runtime/flatgraph.h"

namespace sit::runtime {

using ir::Node;
using ir::NodeP;
using ir::SJKind;

namespace {

// Where a lowered subtree plugs into its surroundings.  An actor/port of -1
// means the subtree has no input (pure source) or no output (pure sink).
struct Ends {
  int in_actor{-1};
  int in_port{-1};
  int out_actor{-1};
  int out_port{-1};
};

class Lowering {
 public:
  FlatGraph finish(Ends top) {
    if (top.in_actor >= 0) {
      g_.input_edge = new_edge(-1, 0, top.in_actor, top.in_port);
    }
    if (top.out_actor >= 0) {
      g_.output_edge = new_edge(top.out_actor, top.out_port, -1, 0);
    }
    return std::move(g_);
  }

  Ends lower(const NodeP& n) {
    switch (n->kind) {
      case Node::Kind::Filter: {
        const auto& f = n->filter;
        return leaf(n, f.name, f.peek, f.pop, f.push, FlatActor::Kind::Filter);
      }
      case Node::Kind::Native: {
        const auto& f = n->native;
        return leaf(n, f.name, f.peek, f.pop, f.push, FlatActor::Kind::Native);
      }
      case Node::Kind::Pipeline:
        return lower_pipeline(n);
      case Node::Kind::SplitJoin:
        return lower_splitjoin(n);
      case Node::Kind::FeedbackLoop:
        return lower_feedback(n);
    }
    throw std::logic_error("unreachable");
  }

 private:
  int new_actor(FlatActor a) {
    g_.actors.push_back(std::move(a));
    return static_cast<int>(g_.actors.size()) - 1;
  }

  int new_edge(int src, int sport, int dst, int dport, bool back = false,
               std::vector<double> initial = {}) {
    FlatEdge e;
    e.src = src;
    e.src_port = sport;
    e.dst = dst;
    e.dst_port = dport;
    e.back_edge = back;
    e.initial_items = std::move(initial);
    const int id = static_cast<int>(g_.edges.size());
    g_.edges.push_back(std::move(e));
    if (src >= 0) {
      auto& ports = g_.actors[static_cast<std::size_t>(src)].out_edges;
      if (static_cast<int>(ports.size()) <= sport) ports.resize(static_cast<std::size_t>(sport) + 1, -1);
      ports[static_cast<std::size_t>(sport)] = id;
    }
    if (dst >= 0) {
      auto& ports = g_.actors[static_cast<std::size_t>(dst)].in_edges;
      if (static_cast<int>(ports.size()) <= dport) ports.resize(static_cast<std::size_t>(dport) + 1, -1);
      ports[static_cast<std::size_t>(dport)] = id;
    }
    return id;
  }

  Ends leaf(const NodeP& n, const std::string& name, int peek, int pop, int push,
            FlatActor::Kind kind) {
    FlatActor a;
    a.kind = kind;
    a.name = name;
    a.node = n.get();
    const bool has_in = pop > 0 || peek > 0;
    const bool has_out = push > 0;
    if (has_in) {
      a.in_rate = {pop};
      a.peek_extra = peek - pop;
    }
    if (has_out) a.out_rate = {push};
    const int id = new_actor(std::move(a));
    Ends e;
    if (has_in) {
      e.in_actor = id;
      e.in_port = 0;
    }
    if (has_out) {
      e.out_actor = id;
      e.out_port = 0;
    }
    return e;
  }

  Ends lower_pipeline(const NodeP& n) {
    Ends result;
    Ends prev;
    bool first = true;
    for (const auto& c : n->children) {
      const Ends cur = lower(c);
      if (first) {
        result.in_actor = cur.in_actor;
        result.in_port = cur.in_port;
        first = false;
      } else {
        const bool up = prev.out_actor >= 0;
        const bool down = cur.in_actor >= 0;
        if (up != down) {
          throw std::runtime_error("pipeline '" + n->name +
                                   "': producer/consumer mismatch between stages");
        }
        if (up) {
          new_edge(prev.out_actor, prev.out_port, cur.in_actor, cur.in_port);
        }
      }
      prev = cur;
    }
    result.out_actor = prev.out_actor;
    result.out_port = prev.out_port;
    return result;
  }

  Ends lower_splitjoin(const NodeP& n) {
    const std::size_t k = n->children.size();
    std::vector<Ends> kids;
    kids.reserve(k);
    for (const auto& c : n->children) kids.push_back(lower(c));

    Ends result;

    // Splitter.
    if (n->split.kind != SJKind::Null) {
      FlatActor s;
      s.kind = FlatActor::Kind::Splitter;
      s.name = n->name + ".split";
      s.sj = n->split.kind;
      if (n->split.kind == SJKind::Duplicate) {
        s.in_rate = {1};
        s.out_rate.assign(k, 1);
      } else {
        s.weights = n->split.weights;
        s.in_rate = {n->split.total_weight()};
        s.out_rate.assign(n->split.weights.begin(), n->split.weights.end());
      }
      const int sid = new_actor(std::move(s));
      for (std::size_t i = 0; i < k; ++i) {
        const int w = (n->split.kind == SJKind::Duplicate)
                          ? 1
                          : n->split.weights[i];
        const bool branch_has_in = kids[i].in_actor >= 0;
        if (w > 0 && !branch_has_in) {
          throw std::runtime_error("splitjoin '" + n->name + "': branch " +
                                   std::to_string(i) +
                                   " consumes nothing but splitter weight > 0");
        }
        if (w == 0 && branch_has_in) {
          throw std::runtime_error("splitjoin '" + n->name + "': branch " +
                                   std::to_string(i) +
                                   " consumes input but splitter weight == 0");
        }
        if (w > 0) {
          new_edge(sid, static_cast<int>(i), kids[i].in_actor, kids[i].in_port);
        }
      }
      result.in_actor = sid;
      result.in_port = 0;
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        if (kids[i].in_actor >= 0) {
          throw std::runtime_error("splitjoin '" + n->name +
                                   "': null splitter with consuming branch");
        }
      }
    }

    // Joiner.
    if (n->join.kind != SJKind::Null) {
      FlatActor j;
      j.kind = FlatActor::Kind::Joiner;
      j.name = n->name + ".join";
      j.sj = n->join.kind;
      j.weights = n->join.weights;
      j.in_rate.assign(n->join.weights.begin(), n->join.weights.end());
      j.out_rate = {n->join.total_weight()};
      const int jid = new_actor(std::move(j));
      for (std::size_t i = 0; i < k; ++i) {
        const int w = n->join.weights[i];
        const bool branch_has_out = kids[i].out_actor >= 0;
        if (w > 0 && !branch_has_out) {
          throw std::runtime_error("splitjoin '" + n->name + "': branch " +
                                   std::to_string(i) +
                                   " produces nothing but joiner weight > 0");
        }
        if (w == 0 && branch_has_out) {
          throw std::runtime_error("splitjoin '" + n->name + "': branch " +
                                   std::to_string(i) +
                                   " produces output but joiner weight == 0");
        }
        if (w > 0) {
          new_edge(kids[i].out_actor, kids[i].out_port, jid, static_cast<int>(i));
        }
      }
      result.out_actor = jid;
      result.out_port = 0;
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        if (kids[i].out_actor >= 0) {
          throw std::runtime_error("splitjoin '" + n->name +
                                   "': null joiner with producing branch");
        }
      }
    }

    return result;
  }

  Ends lower_feedback(const NodeP& n) {
    // children[0] = body, children[1] = loop; the back edge from the loop's
    // output into the joiner starts with `delay` items from initPath.
    FlatActor j;
    j.kind = FlatActor::Kind::Joiner;
    j.name = n->name + ".fbjoin";
    j.sj = n->join.kind;
    j.weights = n->join.weights;
    j.in_rate.assign(n->join.weights.begin(), n->join.weights.end());
    j.out_rate = {n->join.total_weight()};
    const int jid = new_actor(std::move(j));

    const Ends body = lower(n->children[0]);
    if (body.in_actor < 0 || body.out_actor < 0) {
      throw std::runtime_error("feedback '" + n->name +
                               "': body must consume and produce");
    }
    new_edge(jid, 0, body.in_actor, body.in_port);

    FlatActor s;
    s.kind = FlatActor::Kind::Splitter;
    s.name = n->name + ".fbsplit";
    s.sj = n->split.kind;
    if (n->split.kind == SJKind::Duplicate) {
      s.in_rate = {1};
      s.out_rate = {1, 1};
    } else {
      s.weights = n->split.weights;
      s.in_rate = {n->split.total_weight()};
      s.out_rate.assign(n->split.weights.begin(), n->split.weights.end());
    }
    const int sid = new_actor(std::move(s));
    new_edge(body.out_actor, body.out_port, sid, 0);

    const Ends loop = lower(n->children[1]);
    if (loop.in_actor < 0 || loop.out_actor < 0) {
      throw std::runtime_error("feedback '" + n->name +
                               "': loop must consume and produce");
    }
    new_edge(sid, 1, loop.in_actor, loop.in_port);
    new_edge(loop.out_actor, loop.out_port, jid, 1, /*back=*/true, n->init_path);

    Ends result;
    result.in_actor = jid;
    result.in_port = 0;
    result.out_actor = sid;
    result.out_port = 0;
    return result;
  }

  FlatGraph g_;
};

}  // namespace

FlatGraph flatten(const NodeP& root) {
  Lowering lw;
  Ends top = lw.lower(root);
  return lw.finish(top);
}

std::vector<int> FlatGraph::topo_order() const {
  const std::size_t n = actors.size();
  std::vector<int> indeg(n, 0);
  for (const auto& e : edges) {
    if (e.src >= 0 && e.dst >= 0 && !e.back_edge) {
      ++indeg[static_cast<std::size_t>(e.dst)];
    }
  }
  std::queue<int> q;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) q.push(static_cast<int>(i));
  }
  std::vector<int> order;
  order.reserve(n);
  while (!q.empty()) {
    const int a = q.front();
    q.pop();
    order.push_back(a);
    for (int eid : actors[static_cast<std::size_t>(a)].out_edges) {
      if (eid < 0) continue;
      const auto& e = edges[static_cast<std::size_t>(eid)];
      if (e.dst >= 0 && !e.back_edge && --indeg[static_cast<std::size_t>(e.dst)] == 0) {
        q.push(e.dst);
      }
    }
  }
  if (order.size() != n) {
    std::string cycle;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) continue;
      cycle += (cycle.empty() ? "" : ", ") + actors[i].name;
    }
    throw std::runtime_error(
        "stream graph contains a cycle outside a feedback loop; cycle "
        "members: " + cycle);
  }
  return order;
}

std::string FlatGraph::describe() const {
  std::ostringstream os;
  os << actors.size() << " actors, " << edges.size() << " edges\n";
  for (std::size_t i = 0; i < actors.size(); ++i) {
    const auto& a = actors[i];
    os << "  [" << i << "] " << a.name << " in=(";
    for (std::size_t p = 0; p < a.in_rate.size(); ++p) os << (p ? "," : "") << a.in_rate[p];
    os << ") out=(";
    for (std::size_t p = 0; p < a.out_rate.size(); ++p) os << (p ? "," : "") << a.out_rate[p];
    os << ")";
    if (a.peek_extra > 0) os << " peek+" << a.peek_extra;
    os << "\n";
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    os << "  e" << i << ": " << e.src << ":" << e.src_port << " -> " << e.dst
       << ":" << e.dst_port;
    if (e.back_edge) os << " (back, " << e.initial_items.size() << " initial)";
    os << "\n";
  }
  return os.str();
}

}  // namespace sit::runtime
