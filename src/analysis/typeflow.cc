#include "analysis/typeflow.h"

#include <deque>

#include "runtime/interp.h"

namespace sit::analysis {

using runtime::FlatActor;
using runtime::FlatGraph;
using runtime::Tag;

namespace {

// Content lattice: Int < Double (an edge is Int only while every producer
// certifies integral items).
Tag content_join(Tag a, Tag b) {
  return (a == Tag::Int && b == Tag::Int) ? Tag::Int : Tag::Double;
}

}  // namespace

std::vector<Tag> propagate_edge_tags(const FlatGraph& g,
                                     const std::vector<Tag>& push_tag) {
  // Forward fixpoint, worklist over actors.  Edges start at Int (bottom) and
  // only rise, so feedback loops converge.
  std::vector<Tag> edge(g.edges.size(), Tag::Int);
  std::deque<int> work;
  std::vector<char> queued(g.actors.size(), 0);

  auto raise_edge = [&](int e, Tag t) {
    const auto ue = static_cast<std::size_t>(e);
    const Tag j = content_join(edge[ue], t);
    if (j == edge[ue]) return;
    edge[ue] = j;
    const int dst = g.edges[ue].dst;
    if (dst >= 0 && !queued[static_cast<std::size_t>(dst)]) {
      queued[static_cast<std::size_t>(dst)] = 1;
      work.push_back(dst);
    }
  };

  // Boundary and prelude seeds: external input items and feedback prelude
  // items carry no certificate.
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (g.edges[e].src < 0 || !g.edges[e].initial_items.empty()) {
      raise_edge(static_cast<int>(e), Tag::Double);
    }
  }
  // Producer seeds: every actor contributes once up front (sources have no
  // inputs and would otherwise never enter the worklist).
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    if (!queued[a]) {
      queued[a] = 1;
      work.push_back(static_cast<int>(a));
    }
  }

  while (!work.empty()) {
    const int ai = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(ai)] = 0;
    const FlatActor& a = g.actors[static_cast<std::size_t>(ai)];
    switch (a.kind) {
      case FlatActor::Kind::Filter:
      case FlatActor::Kind::Native: {
        const Tag t = push_tag[static_cast<std::size_t>(ai)];
        for (int e : a.out_edges) {
          if (e >= 0) raise_edge(e, t);
        }
        break;
      }
      case FlatActor::Kind::Splitter: {
        Tag t = Tag::Int;
        for (int e : a.in_edges) {
          if (e >= 0) t = content_join(t, edge[static_cast<std::size_t>(e)]);
        }
        for (int e : a.out_edges) {
          if (e >= 0) raise_edge(e, t);
        }
        break;
      }
      case FlatActor::Kind::Joiner: {
        Tag t = Tag::Int;
        for (int e : a.in_edges) {
          if (e >= 0) t = content_join(t, edge[static_cast<std::size_t>(e)]);
        }
        for (int e : a.out_edges) {
          if (e >= 0) raise_edge(e, t);
        }
        break;
      }
    }
  }
  return edge;
}

TypeflowResult typeflow(const FlatGraph& g) {
  TypeflowResult r;
  r.actors.resize(g.actors.size());
  std::vector<Tag> push(g.actors.size(), Tag::Double);

  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    const FlatActor& a = g.actors[i];
    ActorTypeflow& t = r.actors[i];
    t.name = a.name;
    if (a.kind != FlatActor::Kind::Filter) continue;
    t.is_filter = true;
    ++r.candidates;

    const ir::FilterSpec& spec = a.node->filter;
    // A fresh, private state: inference needs the post-init tags, exactly as
    // the executors specialize after running init.
    const runtime::FilterState st = runtime::Interp::init_state(spec);
    auto tp = runtime::typed_compile(spec, st, &t.refusal);
    if (tp) {
      const runtime::CompiledFilter& base = *tp->base;
      t.specialized = true;
      t.typed_regs = tp->work.typed_regs;
      t.push_tag = tp->work.push_tag;
      for (const runtime::MacLoopArgs& m : tp->macs) {
        ++(m.has_array ? t.mac_loops : t.sum_loops);
      }
      for (std::size_t s = 0; s < base.scalar_slots.size(); ++s) {
        t.scalar_types.emplace_back(base.scalar_slots[s],
                                    runtime::tag_name(tp->work.scalar_class[s]));
      }
      for (std::size_t s = 0; s < base.array_slots.size(); ++s) {
        t.array_types.emplace_back(base.array_slots[s],
                                   runtime::tag_name(tp->work.array_class[s]));
      }
      ++r.typed_actors;
      r.typed_regs += t.typed_regs;
      r.mac_loops += t.mac_loops + t.sum_loops;
    } else {
      // Refused: state classes are still informative -- report the tags as
      // observed on the initialized state, in declaration order.
      for (const auto& d : spec.state) {
        if (d.is_array) {
          t.array_types.emplace_back(
              d.name, runtime::tag_name(runtime::array_tag(st.arrays.at(d.name))));
        } else {
          t.scalar_types.emplace_back(
              d.name, runtime::tag_name(runtime::value_tag(st.scalars.at(d.name))));
        }
      }
    }
    push[i] = t.push_tag;
  }

  r.edge_content = propagate_edge_tags(g, push);
  for (const Tag t : r.edge_content) {
    if (t == Tag::Double) {
      ++r.typed_channels;
    } else {
      ++r.int_channels;
    }
  }
  return r;
}

std::string TypeflowResult::describe(const FlatGraph& g) const {
  std::string out;
  out += "typeflow: " + std::to_string(typed_actors) + "/" +
         std::to_string(candidates) + " filter(s) specialized, " +
         std::to_string(typed_regs) + " double register(s), " +
         std::to_string(typed_channels) + " double-content channel(s), " +
         std::to_string(int_channels) + " int-content channel(s), " +
         std::to_string(mac_loops) + " per-actor mac/sum-loop(s)\n";
  for (const ActorTypeflow& a : actors) {
    if (!a.is_filter) continue;
    out += "  " + a.name + ": ";
    if (a.specialized) {
      out += "typed (" + std::to_string(a.typed_regs) + " double reg(s), push " +
             runtime::tag_name(a.push_tag);
      if (a.mac_loops > 0) out += ", " + std::to_string(a.mac_loops) + " mac-loop(s)";
      if (a.sum_loops > 0) out += ", " + std::to_string(a.sum_loops) + " sum-loop(s)";
      out += ")";
    } else {
      out += "tagged (" + a.refusal + ")";
    }
    if (!a.scalar_types.empty() || !a.array_types.empty()) {
      out += "\n    state:";
      for (const auto& [name, tag] : a.scalar_types) {
        out += " " + name + ":" + tag;
      }
      for (const auto& [name, tag] : a.array_types) {
        out += " " + name + "[]:" + tag;
      }
    }
    out += "\n";
  }
  for (std::size_t e = 0; e < edge_content.size(); ++e) {
    const auto& ed = g.edges[e];
    const std::string src =
        ed.src >= 0 ? g.actors[static_cast<std::size_t>(ed.src)].name : "input";
    const std::string dst =
        ed.dst >= 0 ? g.actors[static_cast<std::size_t>(ed.dst)].name : "output";
    out += "  edge " + std::to_string(e) + " " + src + "->" + dst + ": " +
           runtime::tag_name(edge_content[e]) + "\n";
  }
  return out;
}

}  // namespace sit::analysis
