#include "runtime/fire.h"

#include "runtime/channel.h"

namespace sit::runtime {

bool fire_actor(const FlatActor& a, FilterState& state,
                ir::NativeState* nstate, TypedBound* typed,
                ir::InTape* const* in_tapes, ir::OutTape* const* out_tapes,
                OpCounts* counts, const MessageSink* sink,
                const obs::FiringTrace* trace) {
  const auto in_tape = [&](std::size_t port) -> ir::InTape& {
    const int eid = port < a.in_edges.size() ? a.in_edges[port] : -1;
    return eid < 0 ? null_in : *in_tapes[static_cast<std::size_t>(eid)];
  };
  const auto out_tape = [&](std::size_t port) -> ir::OutTape& {
    const int eid = port < a.out_edges.size() ? a.out_edges[port] : -1;
    return eid < 0 ? null_out : *out_tapes[static_cast<std::size_t>(eid)];
  };

  switch (a.kind) {
    case FlatActor::Kind::Filter:
      if (typed != nullptr) {
        typed->run_work(in_tape(0), out_tape(0), counts, trace);
        return trace != nullptr;
      }
      // Teleport senders always land here (compile_filter refuses Send),
      // so this is the only path that needs the message sink.
      Interp::run_work(a.node->filter, state, in_tape(0), out_tape(0), counts,
                       sink);
      return false;
    case FlatActor::Kind::Native:
      a.node->native.work(nstate, in_tape(0), out_tape(0));
      if (counts) {
        // Native filters declare their per-firing cost statically.
        counts->flops += static_cast<std::int64_t>(a.node->native.cost_flops);
        counts->int_ops += static_cast<std::int64_t>(
            a.node->native.cost_ops - a.node->native.cost_flops);
        counts->channel += a.pop_rate() + a.push_rate();
      }
      return false;
    case FlatActor::Kind::Splitter: {
      ir::InTape& in = in_tape(0);
      if (a.sj == ir::SJKind::Duplicate) {
        const double v = in.pop_item();
        for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
          if (a.out_edges[p] >= 0) out_tape(p).push_item(v);
        }
        if (counts) {
          counts->channel += 1 + static_cast<std::int64_t>(a.out_edges.size());
        }
      } else {
        for (std::size_t p = 0; p < a.out_rate.size(); ++p) {
          for (int k = 0; k < a.out_rate[p]; ++k) {
            const double v = in.pop_item();
            if (p < a.out_edges.size() && a.out_edges[p] >= 0) {
              out_tape(p).push_item(v);
            }
            if (counts) counts->channel += 2;
          }
        }
      }
      return false;
    }
    case FlatActor::Kind::Joiner: {
      ir::OutTape& out = out_tape(0);
      for (std::size_t p = 0; p < a.in_rate.size(); ++p) {
        if (p >= a.in_edges.size() || a.in_edges[p] < 0) continue;
        for (int k = 0; k < a.in_rate[p]; ++k) {
          out.push_item(in_tape(p).pop_item());
          if (counts) counts->channel += 2;
        }
      }
      return false;
    }
  }
  return false;
}

}  // namespace sit::runtime
