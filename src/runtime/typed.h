#pragma once
// Typed dataflow: static tag inference + dual-plane (unboxed) execution.
//
// Every register, state slot, and channel item the tree interpreter touches
// is an ir::Value (variant<int64, double>), so every operation pays variant
// dispatch even though most apps never hold ints in hot registers.  This
// module is what the compiled engines execute, and it removes that cost
// where a static analysis can prove it safe:
//
//   * A forward, flow-sensitive dataflow over the (VM or fused) bytecode
//     assigns every register AT EVERY PROGRAM POINT a lattice tag
//         Int | Double | Mixed        (Int join Double = Mixed)
//     seeded from the register template, with transfer functions mirroring
//     the Java-like promotion rules in eval_ops.h (int op int stays Int, any
//     Double operand promotes, comparisons/logic produce Int, channel
//     pops/peeks produce Double, ToInt/ToFloat force a plane).  Filter state
//     scalars/arrays get one global class each: the join of the bound
//     state's current tag and every store site's tag.  Flow-sensitivity
//     matters because the compiler reuses expression temporaries across
//     statements with different tags -- a per-register summary would refuse
//     nearly everything.
//
//   * When no *read* ever observes Mixed, the program is lowered 1:1 to a
//     TyInstr stream executed against two raw register files -- a double
//     plane and an int64 plane -- with a per-instruction mode byte naming
//     each operand's plane (eval_ops.h typed_bin/typed_un).  Two planes
//     rather than one double file because int64 arithmetic (the LCG sources'
//     wrap-around, bit ops) exceeds a double's 53-bit mantissa.
//
//   * When some read does observe Mixed, lowering refuses with a stable
//     reason string -- "mixed-register" / "mixed-state:<name>" (prefixed
//     with the actor for fused traces) -- and the caller falls back: a
//     refused fused trace runs per-actor, a refused actor runs on the tree
//     interpreter.  Bit-equality between SIT_TYPED=0 (everything on the
//     tree) and =1 is the contract: the typed loops reproduce the tree's
//     promotion, truncating casts, op counting, and error strings exactly.
//
// Consumers: compile.cc::typed_compile specializes one filter's work program
// (executed by TypedBound, vm.cc -- the per-actor typed VM, which runs the
// fused trace's mac-loop / sum-loop superinstructions too);
// fused.cc::build_typed_fused specializes a whole fused steady-state trace
// (executed by TypedFusedExec, with the mac-loop superinstruction lowered to
// a raw double* kernel); and analysis/typeflow.h lifts the per-actor results
// to a whole-graph view with channel content tags.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/filter.h"
#include "ir/value.h"
#include "obs/trace.h"
#include "runtime/fused.h"
#include "runtime/interp.h"
#include "runtime/opcounts.h"
#include "runtime/vm.h"

namespace sit::runtime {

// The three-point tag lattice.  Int and Double are incomparable; Mixed tops.
enum class Tag : std::uint8_t { Int = 0, Double = 1, Mixed = 2 };

inline Tag join_tag(Tag a, Tag b) { return a == b ? a : Tag::Mixed; }
inline Tag value_tag(const ir::Value& v) {
  return v.is_int() ? Tag::Int : Tag::Double;
}
// The join over an array's elements (Int for an empty array).
inline Tag array_tag(const std::vector<ir::Value>& arr) {
  Tag t = arr.empty() ? Tag::Int : value_tag(arr.front());
  for (const auto& v : arr) t = join_tag(t, value_tag(v));
  return t;
}
const char* tag_name(Tag t);  // "int" | "double" | "mixed"

// One typed instruction: the FOp plus the operand-plane mode byte
// (eval_ops.h kModeAD/kModeBD/kModeDD).  CountTag::ByResult is resolved
// statically during lowering, so typed dispatch never tests a value tag.
struct TyInstr {
  FOp op{FOp::Halt};
  std::uint8_t sub{0};
  CountTag count{CountTag::None};
  std::uint8_t mode{0};
  std::uint16_t dst{0}, a{0}, b{0};
  std::int32_t jump{-1};
  std::int32_t edge{-1};
};

// Typed sidecar for one PopComputePush site (parallel to FusedProgram::pcps):
// operand planes for the compute op and the statically resolved result plane
// and count field.
struct TypedPcp {
  std::uint8_t mode{0};
  bool res_double{true};
  CountTag tag{CountTag::None};
};

// The result of lowering one bytecode instruction stream.  `code` is 1:1 with
// the input (same indices, same jump targets); the register template is
// split across the two planes by tag.
struct TypedCode {
  std::vector<TyInstr> code;
  std::vector<double> dreg_init;        // double-plane register template
  std::vector<std::int64_t> ireg_init;  // int-plane register template
  std::vector<Tag> reg_tag;      // per register: join of every write's tag
  std::vector<Tag> scalar_class;  // per scalar slot
  std::vector<Tag> array_class;   // per array slot
  std::vector<TypedPcp> pcps;     // fused programs only
  Tag push_tag{Tag::Double};      // join of pushed value tags (Double if none)
  int typed_regs{0};              // registers proven Double everywhere
};

// Lowering input.  For a VM work program, `code` is the VmInstr stream
// re-expressed as FInstr (Peek -> RPeek with edge -1, etc.), with its
// mac-loops selected against `macs`, and `fused` is null.  For a fused
// trace, `fused` supplies the other superinstruction argument tables and
// per-actor register templates, and `loop` makes the analysis join the
// Halt-exit state back into the entry state (fused registers persist across
// iterations; VM registers are re-templated every firing).
struct TypedLowerInput {
  const std::vector<FInstr>* code{nullptr};
  std::size_t num_regs{0};
  std::vector<ir::Value> reg_init;  // entry register template (may be
                                    // shorter than num_regs; rest Int 0)
  std::vector<Tag> scalar_seed, array_seed;
  const std::vector<std::string>* scalar_names{nullptr};  // refusal strings
  const std::vector<std::string>* array_names{nullptr};
  const FusedProgram* fused{nullptr};
  const std::vector<MacLoopArgs>* macs{nullptr};  // MacLoop arguments
  bool loop{false};
};

// Run the inference to fixpoint and lower.  Returns false (and fills
// `refusal` with a stable reason) when some read observes Mixed or some
// state slot's class is Mixed.
bool typed_lower(const TypedLowerInput& in, TypedCode* out,
                 std::string* refusal);

// ---- VM layer ---------------------------------------------------------------

// A work function specialized onto the dual register plane.  Produced by
// typed_compile (compile.cc) from the filter's compiled bytecode; `base`
// supplies the slot names and peek window the binding and the error strings
// need.  Init is not part of it: init runs once, on the tree interpreter,
// before specialization (its result seeds the state classes).
struct TypedFilter {
  CompiledFilterP base;
  TypedCode work;
  std::vector<MacLoopArgs> macs;  // arguments of work's MacLoop instructions
};

using TypedFilterP = std::shared_ptr<const TypedFilter>;

// Compile `spec`'s work function (compile.h) and specialize it against the
// *current* state tags (state must already be initialized; its tags seed
// the scalar/array classes).  Returns null with a stable `reason` when
// either step refuses:
//   "has-handlers"       teleport handlers may retag state at any time
//   "teleport-send"      the filter sends teleport messages
//   "no-bytecode:<why>"  the work function is outside the bytecode subset
//   "mixed-register"     some read observes an Int-or-Double register
//   "mixed-state:<name>" some state slot is stored with both tags
TypedFilterP typed_compile(const ir::FilterSpec& spec,
                           const FilterState& state,
                           std::string* reason = nullptr);

// The per-actor typed VM.  Binding resolves state slots to raw pointers into
// the FilterState's maps once, so firings do no hashing; registers live in
// two raw planes and dispatch never touches a variant.  State stays in the
// FilterState's ir::Values (loads/stores go through the proven class), so
// message handlers run by the tree interpreter mutate the very storage the
// next firing reads.  The FilterState must outlive the binding, must not be
// moved, and must not gain or lose entries.
class TypedBound {
 public:
  TypedBound(TypedFilterP prog, FilterState& state);

  // One invocation of work.  `counts` may be null (counting is skipped
  // entirely); `trace`, when non-null, receives the firing's measured
  // channel batches (items popped/pushed) as trace events.
  void run_work(ir::InTape& in, ir::OutTape& out, OpCounts* counts,
                const obs::FiringTrace* trace = nullptr);

  [[nodiscard]] const TypedFilter& program() const { return *prog_; }

 private:
  template <bool kCount>
  void run_program(ir::InTape* in, ir::OutTape* out, OpCounts* counts,
                   const obs::FiringTrace* trace);

  TypedFilterP prog_;
  std::vector<ir::Value*> scalars_;
  std::vector<std::vector<ir::Value>*> arrays_;
  std::vector<double> dregs_;
  std::vector<std::int64_t> iregs_;
};

// ---- fused layer ------------------------------------------------------------

// A whole fused steady-state trace specialized onto the dual plane.  The
// untyped FusedProgram stays authoritative (disassembly, superinstruction
// stats); `code` mirrors it 1:1 and shares its argument tables by index.
struct TypedFusedProgram {
  FusedProgramP base;
  TypedCode code;
};

using TypedFusedProgramP = std::shared_ptr<const TypedFusedProgram>;

// Specialize a fused trace.  `states` is the per-flat-actor FilterState
// vector (already initialized; tags seed the state classes).  Refusals add
// the owning actor to the stable reason: "mixed-register:<actor>",
// "mixed-state:<actor>.<name>", "super-untyped:<actor>" (a mac-loop whose
// accumulator or coefficient array is not Double).
TypedFusedProgramP build_typed_fused(const FusedProgramP& base,
                                     const std::vector<FilterState>& states,
                                     std::string* refusal = nullptr);

// The fused-trace executor, bound to one executor's storage (FilterStates,
// boundary Channels, NativeStates).  Usage per run_steady call:
//
//   if (fx.activate()) {           // lower internal channels to buffers
//     for each iteration: fx.run_iteration(counts);
//     fx.deactivate();             // restore carried items to the channels
//   }
//
// activate() refuses (returns false) when some internal channel does not
// hold exactly its steady-state carry -- e.g. after manual fire() calls left
// the graph mid-iteration -- or when some state tag no longer matches its
// inferred class (e.g. a teleport handler retagged a scalar between runs);
// the caller then runs the iteration per-actor instead.  (A fused segment,
// parallel/segment.cc, activates once after its body's init epoch and never
// deactivates: nothing outside the trace reads the body's state.)  For the
// duration of an activation every filter state scalar/array is mirrored into
// raw plane storage (written back on deactivate), which is what lets the
// mac-loop run as `for (i) acc += src[i] * coef[i]` over raw double spans.
// run_iteration advances every lowered channel's cumulative counters by its
// traffic, executes one whole steady state, and compacts each buffer's
// carried items back to the front.
class TypedFusedExec {
 public:
  TypedFusedExec(TypedFusedProgramP prog, std::vector<FilterState>& states,
                 const std::vector<std::unique_ptr<Channel>>& chans,
                 const std::vector<std::unique_ptr<ir::NativeState>>& nstates);

  bool activate();
  void deactivate();
  void run_iteration(OpCounts* actor_counts);
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const TypedFusedProgram& program() const { return *prog_; }

 private:
  template <bool kCount>
  void run(OpCounts* actor_counts);
  void finish_iteration();
  bool sync_state_in();   // Value -> planes; false on a class/tag mismatch
  void sync_state_out();  // planes -> Value

  struct EdgeState {
    std::vector<double> buf;
    std::size_t rd{0}, wr{0};
  };
  class BufIn;
  class BufOut;

  TypedFusedProgramP prog_;
  std::vector<ir::Value*> scalar_vals_;
  std::vector<std::vector<ir::Value>*> array_vals_;
  std::vector<double> dregs_;
  std::vector<std::int64_t> iregs_;
  std::vector<double> dscalars_;
  std::vector<std::int64_t> iscalars_;
  std::vector<std::vector<double>> darrays_;
  std::vector<std::vector<std::int64_t>> iarrays_;
  std::vector<Channel*> chans_;
  std::vector<ir::NativeState*> nstates_;
  std::vector<EdgeState> ebuf_;
  bool active_{false};
};

}  // namespace sit::runtime
