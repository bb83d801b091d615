#include "runtime/vm.h"

#include <stdexcept>

#include "runtime/eval_ops.h"
#include "runtime/mac_loop.h"
#include "runtime/typed.h"

namespace sit::runtime {

using ir::BinOp;
using ir::UnOp;
using ir::Value;

// ---- typed (dual-plane) dispatch --------------------------------------------
//
// TypedBound runs a filter's bytecode instruction for instruction with the
// tree interpreter's op counting, debug peek checks and error strings, and
// reports each firing's measured channel batches as trace events.  What
// typeflow proved safe is what makes it fast: registers live in two raw
// planes (no variant), CountTag::ByResult is pre-resolved, state
// loads/stores go through the slot's inferred class, and a
// `for (i) acc += peek(i) [* coef[i]]` loop is one MacLoop dispatch.

TypedBound::TypedBound(TypedFilterP prog, FilterState& state)
    : prog_(std::move(prog)) {
  const CompiledFilter& base = *prog_->base;
  scalars_.reserve(base.scalar_slots.size());
  for (const auto& name : base.scalar_slots) {
    auto it = state.scalars.find(name);
    if (it == state.scalars.end()) {
      throw std::logic_error("VM bind: state has no scalar '" + name + "'");
    }
    scalars_.push_back(&it->second);
  }
  arrays_.reserve(base.array_slots.size());
  for (const auto& name : base.array_slots) {
    auto it = state.arrays.find(name);
    if (it == state.arrays.end()) {
      throw std::logic_error("VM bind: state has no array '" + name + "'");
    }
    arrays_.push_back(&it->second);
  }
  dregs_.resize(prog_->work.dreg_init.size());
  iregs_.resize(prog_->work.ireg_init.size());
}

template <bool kCount>
void TypedBound::run_program(ir::InTape* in, ir::OutTape* out,
                             OpCounts* counts, const obs::FiringTrace* trace) {
  const TypedCode& p = prog_->work;
  double* const dr = dregs_.data();
  std::int64_t* const ir = iregs_.data();
  std::copy(p.dreg_init.begin(), p.dreg_init.end(), dr);
  std::copy(p.ireg_init.begin(), p.ireg_init.end(), ir);
  const TyInstr* const code = p.code.data();
  const CompiledFilter& base = *prog_->base;
  const bool debug = debug_channel_checks();
  std::int64_t pops = 0;
  std::int64_t pushes = 0;
  std::int32_t pc = 0;

  // ByResult is resolved at lowering time, so the tally is always one add.
  const auto tally = [&](CountTag tag) {
    if constexpr (kCount) {
      switch (tag) {
        case CountTag::None: break;
        case CountTag::IntOp: ++counts->int_ops; break;
        case CountTag::Flop: ++counts->flops; break;
        case CountTag::Div: ++counts->divs; break;
        case CountTag::Trans: ++counts->trans; break;
        case CountTag::Mem: ++counts->mem; break;
        case CountTag::Channel: ++counts->channel; break;
        case CountTag::ByResult: break;  // never emitted by typed_lower
      }
    } else {
      (void)tag;
    }
  };

  for (;;) {
    const TyInstr& I = code[pc];
    const bool ad = (I.mode & kModeAD) != 0;
    const bool bd = (I.mode & kModeBD) != 0;
    const bool dd = (I.mode & kModeDD) != 0;
    switch (I.op) {
      case FOp::Move:
        if (dd) {
          dr[I.dst] = dr[I.a];
        } else {
          ir[I.dst] = ir[I.a];
        }
        ++pc;
        break;
      case FOp::LoadScalar:
        if constexpr (kCount) ++counts->mem;
        if (dd) {
          dr[I.dst] = scalars_[I.a]->as_double();
        } else {
          ir[I.dst] = scalars_[I.a]->as_int();
        }
        ++pc;
        break;
      case FOp::StoreScalar:
        if constexpr (kCount) ++counts->mem;
        *scalars_[I.a] = dd ? Value(dr[I.dst]) : Value(ir[I.dst]);
        ++pc;
        break;
      case FOp::LoadElem: {
        const std::int64_t idx = typed_geti(dr, ir, I.b, bd);
        const auto& arr = *arrays_[I.a];
        if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
          elem_bounds_error("array index out of bounds", base.array_slots[I.a],
                            idx);
        }
        if constexpr (kCount) ++counts->mem;
        const Value& v = arr[static_cast<std::size_t>(idx)];
        if (dd) {
          dr[I.dst] = v.as_double();
        } else {
          ir[I.dst] = v.as_int();
        }
        ++pc;
        break;
      }
      case FOp::StoreElem: {
        const std::int64_t idx = typed_geti(dr, ir, I.b, bd);
        auto& arr = *arrays_[I.a];
        if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
          elem_bounds_error("array store out of bounds", base.array_slots[I.a],
                            idx);
        }
        if constexpr (kCount) ++counts->mem;
        arr[static_cast<std::size_t>(idx)] =
            dd ? Value(dr[I.dst]) : Value(ir[I.dst]);
        ++pc;
        break;
      }
      case FOp::RPeek: {
        const std::int64_t off = typed_geti(dr, ir, I.a, ad);
        if (debug) {
          if (off < 0 || pops + off >= base.peek_window) {
            peek_bounds_error(base.name, off, pops, base.peek_window);
          }
        }
        if constexpr (kCount) ++counts->channel;
        dr[I.dst] = in->peek_item(static_cast<int>(off));
        ++pc;
        break;
      }
      case FOp::RPop:
        if constexpr (kCount) ++counts->channel;
        ++pops;
        dr[I.dst] = in->pop_item();
        ++pc;
        break;
      case FOp::RPopN: {
        const std::int64_t n = typed_geti(dr, ir, I.a, ad);
        if (n > 0) {
          if constexpr (kCount) counts->channel += n;
          pops += n;
          in->pop_many(static_cast<int>(n));
        }
        ++pc;
        break;
      }
      case FOp::RPush:
        if constexpr (kCount) ++counts->channel;
        ++pushes;
        out->push_item(typed_getd(dr, ir, I.dst, dd));
        ++pc;
        break;
      case FOp::Bin:
        tally(I.count);
        typed_bin(static_cast<BinOp>(I.sub), dr, ir, I.dst, I.a, I.b, I.mode);
        ++pc;
        break;
      case FOp::Un:
        tally(I.count);
        typed_un(static_cast<UnOp>(I.sub), dr, ir, I.dst, I.a, I.mode);
        ++pc;
        break;
      case FOp::Truthy:
        ir[I.dst] = typed_truthy(dr, ir, I.a, ad) ? 1 : 0;
        ++pc;
        break;
      case FOp::Jmp:
        pc = I.jump;
        break;
      case FOp::JmpIfFalse:
        pc = typed_truthy(dr, ir, I.a, ad) ? pc + 1 : I.jump;
        break;
      case FOp::JmpIfTrue:
        pc = typed_truthy(dr, ir, I.a, ad) ? I.jump : pc + 1;
        break;
      case FOp::JmpIfGe:
        pc = typed_geti(dr, ir, I.a, ad) >= typed_geti(dr, ir, I.b, bd)
                 ? I.jump
                 : pc + 1;
        break;
      case FOp::CheckStep:
        if (typed_geti(dr, ir, I.a, ad) <= 0) {
          throw std::runtime_error("for loop step must be positive");
        }
        ++pc;
        break;
      case FOp::ForInc:
        ir[I.dst] =
            typed_geti(dr, ir, I.dst, dd) + typed_geti(dr, ir, I.a, ad);
        ++pc;
        break;
      case FOp::Tally:
        if constexpr (kCount) counts->int_ops += I.sub;
        ++pc;
        break;
      case FOp::MacLoop: {
        // The fused trace's superinstruction over this firing's input tape:
        // the hoisted precheck plus the raw loop when the tape exposes the
        // whole range as a ring window (Channel, SpscRing), the checked
        // kernel otherwise (counts must stop exactly where an error fires).
        const MacLoopArgs& M = prog_->macs[I.a];
        std::int64_t i = ir[M.ri];
        const std::int64_t hi = ir[M.rhi];
        if (i < hi) {
          const std::int64_t st = ir[M.rstep];
          const std::vector<Value>* coef =
              M.has_array ? arrays_[M.arr] : nullptr;
          const MacCheck chk{
              debug, pops, base.peek_window, &base.name,
              M.has_array ? &base.array_slots[M.arr] : nullptr};
          const std::int64_t i0 = i;
          std::int64_t last = 0;
          ir::TapeWindow w;
          if (mac_loop_clear(
                  i, hi, st,
                  coef != nullptr ? static_cast<std::int64_t>(coef->size())
                                  : -1,
                  chk, &last) &&
              in->window(static_cast<int>(last) + 1, &w)) {
            dr[M.acc] = mac_loop_raw(i, hi, st, dr[M.acc], w,
                                     coef != nullptr ? coef->data() : nullptr);
            if constexpr (kCount) {
              mac_loop_count(counts, (hi - i0 + st - 1) / st, coef != nullptr);
            }
          } else {
            const auto peek = [in](std::int64_t k) {
              return in->peek_item(static_cast<int>(k));
            };
            dr[M.acc] = mac_loop_checked<kCount>(i, hi, st, dr[M.acc], peek,
                                                 coef, counts, chk);
          }
          // The loop-variable local holds its final iteration's value.
          ir[M.slot] = i - st;
        }
        ir[M.ri] = i;
        ++pc;
        break;
      }
      case FOp::Halt:
        if (trace != nullptr && trace->tb != nullptr) {
          const std::int64_t ts = trace->rec->now_ns();
          if (pops > 0) {
            trace->tb->emit(ts, obs::EventKind::PopBatch, trace->in_edge, pops);
          }
          if (pushes > 0) {
            trace->tb->emit(ts, obs::EventKind::PushBatch, trace->out_edge,
                            pushes);
          }
        }
        return;
      default:
        // TPeek/TPop/... and the fused-only superinstructions never appear
        // at the VM layer.
        throw std::logic_error("typed VM dispatch: unexpected opcode");
    }
  }
}

void TypedBound::run_work(ir::InTape& in, ir::OutTape& out, OpCounts* counts,
                          const obs::FiringTrace* trace) {
  if (counts) {
    run_program<true>(&in, &out, counts, trace);
  } else {
    run_program<false>(&in, &out, nullptr, trace);
  }
}

// ---- disassembly ------------------------------------------------------------

namespace {

const char* op_name(VmOp op) {
  switch (op) {
    case VmOp::Move: return "move";
    case VmOp::LoadScalar: return "ld.s";
    case VmOp::StoreScalar: return "st.s";
    case VmOp::LoadElem: return "ld.e";
    case VmOp::StoreElem: return "st.e";
    case VmOp::Peek: return "peek";
    case VmOp::Pop: return "pop";
    case VmOp::PopN: return "popn";
    case VmOp::Push: return "push";
    case VmOp::Bin: return "bin";
    case VmOp::Un: return "un";
    case VmOp::Truthy: return "truthy";
    case VmOp::Jmp: return "jmp";
    case VmOp::JmpIfFalse: return "jf";
    case VmOp::JmpIfTrue: return "jt";
    case VmOp::JmpIfGe: return "jge";
    case VmOp::CheckStep: return "chkstep";
    case VmOp::ForInc: return "forinc";
    case VmOp::Tally: return "tally";
    case VmOp::Halt: return "halt";
  }
  return "?";
}

}  // namespace

std::string disassemble(const CompiledProgram& p) {
  std::string out;
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const VmInstr& I = p.code[i];
    out += std::to_string(i) + ": " + op_name(I.op);
    switch (I.op) {
      case VmOp::Bin:
        out += " " + std::string(ir::to_string(static_cast<BinOp>(I.sub)));
        break;
      case VmOp::Un:
        out += " " + std::string(ir::to_string(static_cast<UnOp>(I.sub)));
        break;
      default:
        break;
    }
    out += " dst=r" + std::to_string(I.dst) + " a=" + std::to_string(I.a) +
           " b=" + std::to_string(I.b);
    if (I.jump >= 0) out += " ->" + std::to_string(I.jump);
    out += "\n";
  }
  return out;
}

}  // namespace sit::runtime
