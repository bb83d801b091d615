#pragma once
// One firing of one flat actor: the per-actor step every executor shares.
//
// sched::Executor fires its actors through this (adding tracing and firing
// tallies around it), and a fused segment (parallel/segment.h) fires the
// actors of its body through it when it does not run a fused trace.  Tapes
// are looked up per edge id in the caller's tables; a port without an edge
// gets runtime::null_in / null_out.

#include "ir/filter.h"
#include "obs/trace.h"
#include "runtime/flatgraph.h"
#include "runtime/interp.h"
#include "runtime/opcounts.h"
#include "runtime/typed.h"

namespace sit::runtime {

// Fire `a` once.  An AST filter runs on `typed` (its per-actor typed VM
// binding) when non-null, else on the tree interpreter against `state`, with
// `sink` receiving its teleport sends; a native runs its work on `nstate`
// and adds its static per-firing cost; splitters and joiners move items.
// `counts` may be null (nothing is tallied).  `trace`, when non-null, is
// handed to the typed VM, which reports the firing's measured channel
// batches; the return value says whether it did (otherwise the caller
// reports the static rates).
bool fire_actor(const FlatActor& a, FilterState& state,
                ir::NativeState* nstate, TypedBound* typed,
                ir::InTape* const* in_tapes, ir::OutTape* const* out_tapes,
                OpCounts* counts, const MessageSink* sink = nullptr,
                const obs::FiringTrace* trace = nullptr);

}  // namespace sit::runtime
