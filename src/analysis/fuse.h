#pragma once
// Steady-state fusion admissibility + trace-buffer sizing.
//
// The fused engine (runtime/fused.h) compiles one whole steady-state
// iteration into a single flat bytecode trace: every actor's firings are
// inlined in single-appearance schedule order and every fully-internal
// channel is lowered to a flat array indexed by statically-known cursors.
// fuse_plan() decides, before any code is generated, whether that trace
// would be *exactly* equivalent to the per-actor execution, and sizes the
// per-edge arrays from the static channel-bound analysis (bounds_chan.h):
//
//   * carry[e]   -- the post-init level L0: items that live across iteration
//                   boundaries (peek windows, feedback delays).  The array
//                   holds carry + traffic items; the carry block is moved to
//                   the front after each iteration.
//   * traffic[e] -- items crossing the edge per steady state; the trace's
//                   write cursor starts at carry and must end at
//                   carry + traffic every iteration (checked at runtime).
//
// Refusal reasons are stable kebab-case strings (they surface through
// streamc --report and obs::MetricsSnapshot.fallback_detail):
//
//   not-single-appearance:<actor>  the steady state does not admit firing
//                                  each actor's full repetition count in
//                                  topological order (e.g. a tight feedback
//                                  loop whose delay cannot cover a whole
//                                  iteration) -- the trace fires actors that
//                                  way, so its firing order would deadlock.
//   vm-fallback:<filter>           the filter's work function is outside the
//                                  bytecode subset (compile_filter refused),
//                                  so there is no template to inline.
//   teleport-send:<filter>         the filter sends teleport messages;
//                                  message emission is firing-interleaved
//                                  and cannot be batched into a flat trace.
//
// The executor adds two *runtime* refusals of its own on top of this static
// plan: message-sink-attached and tracing-enabled (sched/exec.cc) -- both
// are observation channels that want per-firing granularity.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/flatgraph.h"
#include "runtime/fused.h"
#include "sched/schedule.h"

namespace sit::analysis {

struct FusePlan {
  bool admissible{false};
  std::string refusal;  // stable kebab-case reason when !admissible

  // Per-edge, -1 on the external boundary edges (which keep ring channels).
  std::vector<std::int64_t> carry;    // post-init level L0
  std::vector<std::int64_t> traffic;  // items per steady state

  int internal_edges{0};  // channels the trace eliminates
};

// Requires a schedule computed from this exact graph (make_schedule output).
// Never throws on an inadmissible program -- the plan carries the refusal.
FusePlan fuse_plan(const runtime::FlatGraph& g, const sched::Schedule& s);

// fuse_plan + runtime::build_fused: the steady-state trace of (g, s), or
// null with `refusal` set to fuse_plan's or build_fused's stable reason.  The
// trace points into `g`, which must outlive it.
runtime::FusedProgramP fuse_steady(const runtime::FlatGraph& g,
                                   const sched::Schedule& s,
                                   std::string* refusal = nullptr);

}  // namespace sit::analysis
