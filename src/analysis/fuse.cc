#include "analysis/fuse.h"

#include <exception>

#include "analysis/bounds_chan.h"
#include "runtime/compile.h"

namespace sit::analysis {

FusePlan fuse_plan(const runtime::FlatGraph& g, const sched::Schedule& s) {
  FusePlan plan;

  // Every AST filter must compile to bytecode (the trace inlines the
  // compiled template); the compiler refuses teleport senders by name.
  // Native filters are fine: the trace invokes their work function through
  // tape adapters.
  for (const auto& a : g.actors) {
    if (a.kind != runtime::FlatActor::Kind::Filter) continue;
    std::string why;
    if (!runtime::compile_filter(a.node->filter, &why)) {
      plan.refusal = why == "teleport-send"
                         ? why + ":" + a.name
                         : "vm-fallback:" + a.name + " (" + why + ")";
      return plan;
    }
  }

  ChannelBounds bounds;
  try {
    bounds = channel_bounds(g, s);
  } catch (const std::exception& e) {
    plan.refusal = std::string("bounds-unavailable (") + e.what() + ")";
    return plan;
  }
  if (!bounds.single_appearance) {
    plan.refusal = "not-single-appearance:" + bounds.blocker;
    return plan;
  }

  plan.carry = bounds.post_init;
  plan.traffic = bounds.traffic;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& ed = g.edges[e];
    if (ed.src >= 0 && ed.dst >= 0) ++plan.internal_edges;
  }
  plan.admissible = true;
  return plan;
}

runtime::FusedProgramP fuse_steady(const runtime::FlatGraph& g,
                                   const sched::Schedule& s,
                                   std::string* refusal) {
  const FusePlan plan = fuse_plan(g, s);
  if (!plan.admissible) {
    if (refusal) *refusal = plan.refusal;
    return nullptr;
  }
  return runtime::build_fused(g, s.order, s.reps, plan.carry, plan.traffic,
                              refusal);
}

}  // namespace sit::analysis
