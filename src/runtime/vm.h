#pragma once
// Work-function bytecode: the lowered form every compiled engine starts from.
//
// The tree interpreter (interp.h) re-resolves every variable name through an
// unordered_map and chases shared_ptr AST nodes on every firing.  compile.h
// lowers a filter's work AST *once* to the flat register bytecode below
// (every scalar, array, and local resolved to an integer slot; constants
// pooled and preloaded; peek/pop/push as dedicated opcodes).  The bytecode is
// not executed as-is: typed_compile (typed.h) specializes it onto the
// dual-plane register file run by TypedBound (vm.cc) -- the per-actor typed
// VM -- and build_fused (fused.h) inlines it into the whole-program steady
// trace.  A filter the bytecode or the typed lowering refuses runs on the
// tree interpreter, which stays the reference semantics; tests/test_vm.cc
// holds the engines bit-equal differentially.
//
// Register file layout (per program): [locals | pooled constants | loop
// bookkeeping | expression temporaries].  The template `reg_init` is copied
// in at entry, which both preloads constants and resets locals.
//
// Operation counting: every instruction carries a CountTag resolved at
// compile time (mem, channel, div, ...), so tallying is a single add; only
// ops whose int/float classification depends on value tags
// (Add/Sub/Mul/Min/Max/Neg/Abs) carry ByResult, which typed lowering
// resolves statically.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.h"

namespace sit::runtime {

enum class VmOp : std::uint8_t {
  Move,         // r[dst] = r[a]
  LoadScalar,   // r[dst] = state scalar slot a
  StoreScalar,  // state scalar slot a = r[dst]
  LoadElem,     // r[dst] = array slot a [ r[b] ]   (bounds-checked)
  StoreElem,    // array slot a [ r[b] ] = r[dst]   (bounds-checked)
  Peek,         // r[dst] = in.peek(r[a])
  Pop,          // r[dst] = in.pop()
  PopN,         // discard r[a] items
  Push,         // out.push(r[dst])
  Bin,          // r[dst] = <BinOp sub>(r[a], r[b])
  Un,           // r[dst] = <UnOp sub>(r[a])
  Truthy,       // r[dst] = Value(r[a] is truthy)   (bool as int, no count)
  Jmp,          // pc = jump
  JmpIfFalse,   // if (!r[a].truthy()) pc = jump
  JmpIfTrue,    // if (r[a].truthy())  pc = jump
  JmpIfGe,      // if (r[a].as_int() >= r[b].as_int()) pc = jump  (loop test)
  CheckStep,    // throw unless r[a].as_int() > 0   (for-loop step guard)
  ForInc,       // r[dst] = int(r[dst] + r[a])      (loop induction, no count)
  Tally,        // counts->int_ops += sub           (If/Cond/LAnd/LOr/For costs)
  Halt,
};

// Which OpCounts field an instruction bumps; fixed at compile time except
// ByResult (int_ops vs flops decided by the result's runtime tag, exactly
// like the tree interpreter's count_bin / count_un).
enum class CountTag : std::uint8_t {
  None, IntOp, Flop, Div, Trans, Mem, Channel, ByResult,
};

struct VmInstr {
  VmOp op{VmOp::Halt};
  std::uint8_t sub{0};  // BinOp/UnOp ordinal, or Tally amount
  CountTag count{CountTag::None};
  std::uint16_t dst{0}, a{0}, b{0};
  std::int32_t jump{-1};
};

struct CompiledProgram {
  std::vector<VmInstr> code;
  std::vector<ir::Value> reg_init;  // register template: locals zeroed, consts pooled
};

struct CompiledFilter {
  std::string name;
  std::int64_t peek_window{0};  // max(peek, pop): debug channel-check bound
  std::vector<std::string> scalar_slots;  // slot -> state scalar name
  std::vector<std::string> array_slots;   // slot -> state array name
  CompiledProgram work;
};

using CompiledFilterP = std::shared_ptr<const CompiledFilter>;

// Human-readable disassembly, for debugging and the bytecode docs.
std::string disassemble(const CompiledProgram& p);

}  // namespace sit::runtime
