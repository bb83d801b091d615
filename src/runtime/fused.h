#pragma once
// Whole-program fused steady-state trace.
//
// The per-actor typed VM (typed.h) still pays, on every steady-state
// iteration, one work-function dispatch per firing and a ring-buffer round
// trip per item.
// This engine removes both: build_fused() inlines every actor's compiled
// work template into ONE bytecode trace in single-appearance schedule order
// and lowers every fully-internal channel to a flat array ("trace buffer")
// indexed by cursors whose motion is statically known.  Ring channels
// survive only at the program boundary (external input/output edges), where
// the feeder/drainer needs them.  Each actor appears once, its repetitions
// rolled into a counted loop, so the trace is proportional to the graph
// (like the paper's single-appearance steady state), not to
// sum(reps[a] x body).
//
// Layout of one iteration's trace, per actor in schedule order:
//
//   SetActor a            switch OpCounts attribution + peek window
//   ResetRegs a           load the actor's register template (exactly the
//                         per-invocation copy the VM does)
//   L: <work template>    the filter's compiled bytecode, registers rebased
//                         into one flat register file, Peek/Pop/Push lowered
//                         to TPeek/TPop/TPush (trace buffer) or RPeek/RPop/
//                         RPush (boundary ring)
//   Repeat a -> L         run the body reps[a] times: the back edge
//                         re-templates the registers and resets the peek
//                         window's pop count (the next firing's ResetRegs),
//                         the last pass falls through
//
// A firing therefore costs the same dispatches as an unrolled copy (Repeat
// stands in for the next firing's ResetRegs), and an actor with reps[a] == 1
// has no Repeat at all.  Natives roll the same way around one NativeFire
// (their Repeat has no registers to re-template).  A splitter/joiner firing
// that is a single copy-run/dup-run is not looped: its reps[a] identical
// runs merge into one run of reps[a] x the items.  Any other splitter/joiner
// firing rolls like a native.  Loops never nest, so the executor needs one
// counter.
//
// Splitters/joiners are synthesized as explicit pop/push templates and
// native filters as NativeFire calls through tape adapters, so any graph the
// per-actor executor runs (modulo the admissibility rules in
// analysis/fuse.h) can fuse.
//
// A peephole pass over each template (select_superinstructions, which
// typed_compile also runs on every per-actor program for the two loop
// patterns) then collapses the hot patterns into superinstructions --
// single opcodes that execute a whole loop or firing with identical
// semantics and identical OpCounts:
//
//   mac-loop       for(i) acc += peek(i) * coef[i]   (FIR taps; the dominant
//                  pattern of every linear app)
//   sum-loop       for(i) acc += peek(i)             (adders/combiners)
//   pop-push       push(pop())                       (pass-through)
//   pop-bin-push   push(pop() <op> x)                (gain, scalers)
//   pop-un-push    push(<op>(pop()))                 (rectifiers)
//   copy-run       n x { pop(src); push(dst) }       (round-robin routing)
//   dup-run        n x { pop(src); push(all dsts) }  (duplicate splitters)
//
// This file builds the trace; runtime/typed.h executes it.  build_typed_fused
// lowers it onto the dual-plane register file and TypedFusedExec runs that
// lowering.  When the lowering refuses (mixed-register, mixed-state, ...),
// the executor runs the steady state per-actor instead.
//
// Bit-equality contract: for any admissible program, running the trace
// produces outputs, per-actor FilterState, per-actor OpCounts, and per-edge
// cumulative push/pop counters identical to per-actor execution.  Counting
// preservation is per-instruction (every lowered/fused op carries the same
// CountTag arithmetic as the per-actor VM's dispatch loop); channel-counter
// preservation is by bulk advance (each lowered edge's n(t)/p(t) advance by
// `traffic` once per iteration, which equals the sum of the per-item
// increments per-actor execution would have made).  Only Channel high-water marks differ
// (a lowered channel never observes intermediate occupancy).
//
// tests/test_pipeline_diff.cc holds the contract across all apps x all
// optimization levels; tests/test_fused.cc pins superinstruction selection
// and every refusal reason.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/filter.h"
#include "ir/value.h"
#include "runtime/channel.h"
#include "runtime/flatgraph.h"
#include "runtime/interp.h"
#include "runtime/opcounts.h"
#include "runtime/vm.h"

namespace sit::runtime {

enum class FOp : std::uint8_t {
  // Scalar core -- semantics identical to the VmOp of the same name, with
  // register / state-slot operands rebased into the flat program-wide files.
  Move, LoadScalar, StoreScalar, LoadElem, StoreElem,
  Bin, Un, Truthy, Jmp, JmpIfFalse, JmpIfTrue, JmpIfGe, CheckStep, ForInc,
  Tally,  // counts->(field selected by `count`) += sub
  // Boundary channel ops: the edge keeps its ring Channel (`edge` field).
  RPeek, RPop, RPopN, RPush,
  // Lowered channel ops: the edge is a flat trace buffer (`edge` field).
  TPeek, TPop, TPopN, TPush,
  // Firing structure.
  SetActor,    // a = actor id: OpCounts attribution + peek window
  ResetRegs,   // a = actor id: reload the actor's register template
  Repeat,      // a = actor id: close the actor's loop; while fewer than
               // reps[a] passes ran, jump back to `jump` (sub != 0: first
               // re-template the registers and reset the pop count)
  // Superinstructions (`a` indexes the matching args table).
  MacLoop,         // mac-loop / sum-loop
  PopComputePush,  // pop-push / pop-bin-push / pop-un-push
  CopyRun,         // copy-run / dup-run
  NativeFire,      // one firing of a native filter through tape adapters
  Halt,
};

struct FInstr {
  FOp op{FOp::Halt};
  std::uint8_t sub{0};  // BinOp/UnOp ordinal, or Tally amount
  CountTag count{CountTag::None};
  std::uint16_t dst{0}, a{0}, b{0};
  std::int32_t jump{-1};
  std::int32_t edge{-1};  // channel ops: flat-graph edge id
};

// for (i = r[ri]; i < r[rhi]; i += r[rstep])
//   r[acc] += peek(i) [ * coef[i] ]
// with per-iteration counts identical to the 9-instruction (7 without the
// coefficient array) VM loop body it replaces.
struct MacLoopArgs {
  std::uint16_t ri{0}, rhi{0}, rstep{0};  // loop bookkeeping registers
  std::uint16_t slot{0};                  // the loop-variable local
  std::uint16_t acc{0};                   // accumulator register
  std::uint16_t p{0}, q{0}, m{0};         // constituent temporaries
  std::uint16_t arr{0};                   // flat array slot (has_array)
  bool has_array{false};
  std::int32_t edge{-1};
  bool real{false};  // peek the boundary ring instead of a trace buffer
};

struct PcpArgs {
  enum class Kind : std::uint8_t { Plain, Bin, Un };
  Kind kind{Kind::Plain};
  std::uint8_t sub{0};             // BinOp/UnOp ordinal (Bin/Un kinds)
  CountTag tag{CountTag::None};    // the compute op's CountTag
  std::int32_t in_edge{-1}, out_edge{-1};
  bool in_real{false}, out_real{false};
  std::uint16_t rpop{0};           // register the popped item lands in
  std::uint16_t a{0}, b{0};        // Bin operand registers
  std::uint16_t rres{0};           // register whose value is pushed
};

struct CopyRunArgs {
  std::int32_t src{-1};
  bool src_real{false};
  std::vector<std::int32_t> dst;   // >= 1 destinations (dup-run when > 1)
  std::vector<std::uint8_t> dst_real;
  std::int64_t n{0};               // items moved
  std::uint16_t reg{0};            // scratch register (holds the last item)
};

struct NativeFireArgs {
  int actor{-1};
  std::int32_t in_edge{-1}, out_edge{-1};
  bool in_real{false}, out_real{false};
  // Static per-firing counts, exactly as the per-actor executor adds them.
  std::int64_t flops{0}, int_ops{0}, channel{0};
};

struct FusedActorMeta {
  std::string name;
  std::uint32_t reg_base{0};
  std::uint32_t scalar_base{0}, array_base{0};
  std::uint32_t num_scalars{0}, num_arrays{0};
  std::vector<ir::Value> reg_init;  // empty for splitters/joiners/natives
  std::int64_t peek_window{0};
  bool native{false};
};

struct FusedEdgeMeta {
  bool internal{false};
  std::int64_t carry{0};    // items living across iteration boundaries (L0)
  std::int64_t traffic{0};  // items crossing per iteration
};

struct FusedProgram {
  const FlatGraph* graph{nullptr};  // non-owning; must outlive the program
  std::vector<int> order;           // single-appearance firing order
  std::vector<std::int64_t> reps;
  std::vector<FInstr> code;
  std::vector<MacLoopArgs> macs;
  std::vector<PcpArgs> pcps;
  std::vector<CopyRunArgs> copies;
  std::vector<NativeFireArgs> nats;
  std::vector<FusedActorMeta> actors;
  std::vector<FusedEdgeMeta> edges;
  // Flat state-slot name tables (error messages + binding), indexed by
  // actors[i].scalar_base/array_base + slot.
  std::vector<std::string> scalar_names, array_names;
  std::size_t num_regs{0};
  int eliminated_channels{0};  // internal edges lowered to trace buffers
  // Static superinstruction selection: instances executed per iteration by
  // stable name (mac-loop, sum-loop, pop-push, pop-bin-push, pop-un-push,
  // copy-run, dup-run) -- an instance inside an actor's loop counts reps[a]
  // times.  Absent name == 0.
  std::map<std::string, std::int64_t> super;

  [[nodiscard]] std::int64_t super_count(const std::string& name) const {
    const auto it = super.find(name);
    return it == super.end() ? 0 : it->second;
  }
  // Human-readable trace listing with superinstructions annotated and each
  // actor loop closed by "repeat ×N" (streamc --dump-after=fuse-steady).
  [[nodiscard]] std::string disassemble() const;
};

using FusedProgramP = std::shared_ptr<const FusedProgram>;

// Superinstruction selection over one instruction stream (a fused actor
// template, or a per-actor work program re-expressed as FInstr; jump targets
// are stream indices, and a target == t.size() means "fall off the end").
// Every matched window collapses into one FOp::MacLoop or (when `pcps` is
// non-null) FOp::PopComputePush whose `a` indexes the arguments appended to
// that table, and every jump is remapped through the old -> new index map.  The one matcher both compiled engines
// use: build_fused runs it on every filter template, typed_compile on every
// per-actor program.
void select_superinstructions(std::vector<FInstr>& t,
                              std::vector<MacLoopArgs>& macs,
                              std::vector<PcpArgs>* pcps);

// Build the fused trace for one steady-state iteration.  `order`/`reps` are
// the single-appearance schedule; `carry`/`traffic` are the per-edge sizing
// from analysis::fuse_plan (carry < 0 marks a boundary edge).  Returns
// nullptr with `reason` filled when some construct cannot be traced (the
// caller falls back to per-actor execution).
FusedProgramP build_fused(const FlatGraph& g, const std::vector<int>& order,
                          const std::vector<std::int64_t>& reps,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          std::string* reason = nullptr);

}  // namespace sit::runtime
