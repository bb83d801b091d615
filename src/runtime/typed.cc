// Static tag inference + dual-plane lowering (see typed.h).
//
// The analysis is a standard forward dataflow over the bytecode CFG:
// per-instruction IN states of register tags, worklist-propagated to a
// fixpoint, with the state scalar/array classes as global lattice cells that
// are re-seeded and the flow re-run until they stabilize (a store can raise
// a class, which retags every load of that slot).  Lowering then walks the
// final states and emits one TyInstr per FInstr -- same indices, same jump
// targets -- refusing the moment any *read* observes Mixed.

#include "runtime/typed.h"

#include <deque>
#include <stdexcept>

#include "ir/ast.h"
#include "runtime/eval_ops.h"

namespace sit::runtime {

namespace {

using TagVec = std::vector<Tag>;

Tag bin_result(ir::BinOp op, Tag a, Tag b) {
  using ir::BinOp;
  switch (op) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod:
    case BinOp::Min:
    case BinOp::Max:
      if (a == Tag::Mixed || b == Tag::Mixed) return Tag::Mixed;
      return (a == Tag::Int && b == Tag::Int) ? Tag::Int : Tag::Double;
    case BinOp::Pow:
      return Tag::Double;
    default:
      // Comparisons, logic, bit ops, shifts: canonical Int (ir::Value(bool)).
      return Tag::Int;
  }
}

Tag un_result(ir::UnOp op, Tag a) {
  using ir::UnOp;
  switch (op) {
    case UnOp::Neg:
    case UnOp::Abs:
      return a;
    case UnOp::LNot:
    case UnOp::BNot:
    case UnOp::ToInt:
      return Tag::Int;
    default:
      return Tag::Double;
  }
}

// The whole-stream analysis state threaded through flow + lowering.
struct Flow {
  const TypedLowerInput* in{nullptr};
  const std::vector<FInstr>* code{nullptr};
  TagVec entry;
  std::vector<TagVec> states;  // IN state per instruction
  std::vector<char> reach;
  TagVec scls, acls;  // scalar / array classes (monotone across reruns)
  bool cls_changed{false};

  void raise_scalar(std::size_t slot, Tag t) {
    const Tag j = join_tag(scls[slot], t);
    if (j != scls[slot]) {
      scls[slot] = j;
      cls_changed = true;
    }
  }
  void raise_array(std::size_t slot, Tag t) {
    const Tag j = join_tag(acls[slot], t);
    if (j != acls[slot]) {
      acls[slot] = j;
      cls_changed = true;
    }
  }
};

// An actor's register slice after its template is (re)loaded.
void reset_tags(const Flow& F, std::uint16_t actor, TagVec& s) {
  const FusedActorMeta& m = F.in->fused->actors[actor];
  for (std::size_t k = 0; k < m.reg_init.size(); ++k) {
    s[m.reg_base + k] = value_tag(m.reg_init[k]);
  }
}

// Mutate `s` from the IN state of `I` to its OUT state.  (Repeat's back
// edge re-templates on the edge itself; see run_flow.)
void transfer(Flow& F, const FInstr& I, TagVec& s) {
  switch (I.op) {
    case FOp::Move:
      s[I.dst] = s[I.a];
      break;
    case FOp::LoadScalar:
      s[I.dst] = F.scls[I.a];
      break;
    case FOp::StoreScalar:
      F.raise_scalar(I.a, s[I.dst]);
      break;
    case FOp::LoadElem:
      s[I.dst] = F.acls[I.a];
      break;
    case FOp::StoreElem:
      F.raise_array(I.a, s[I.dst]);
      break;
    case FOp::Bin:
      s[I.dst] = bin_result(static_cast<ir::BinOp>(I.sub), s[I.a], s[I.b]);
      break;
    case FOp::Un:
      s[I.dst] = un_result(static_cast<ir::UnOp>(I.sub), s[I.a]);
      break;
    case FOp::Truthy:
    case FOp::ForInc:
      s[I.dst] = Tag::Int;
      break;
    case FOp::RPeek:
    case FOp::TPeek:
    case FOp::RPop:
    case FOp::TPop:
      s[I.dst] = Tag::Double;
      break;
    case FOp::ResetRegs:
      reset_tags(F, I.a, s);
      break;
    case FOp::MacLoop: {
      const MacLoopArgs& M = (*F.in->macs)[I.a];
      // Zero-trip leaves acc/slot untouched, so their OUT tag is the join.
      s[M.acc] = join_tag(s[M.acc], Tag::Double);
      s[M.slot] = join_tag(s[M.slot], Tag::Int);
      s[M.ri] = Tag::Int;
      break;
    }
    case FOp::PopComputePush: {
      const PcpArgs& P = F.in->fused->pcps[I.a];
      s[P.rpop] = Tag::Double;
      if (P.kind == PcpArgs::Kind::Bin) {
        s[P.rres] = bin_result(static_cast<ir::BinOp>(P.sub), s[P.a], s[P.b]);
      } else if (P.kind == PcpArgs::Kind::Un) {
        s[P.rres] = un_result(static_cast<ir::UnOp>(P.sub), s[P.a]);
      }
      break;
    }
    case FOp::CopyRun: {
      const CopyRunArgs& C = F.in->fused->copies[I.a];
      if (C.n > 0) s[C.reg] = Tag::Double;
      break;
    }
    default:
      // RPopN/TPopN/RPush/TPush, jumps, CheckStep, Tally, SetActor,
      // NativeFire, Halt: no register writes.
      break;
  }
}

// CFG successors of the instruction at `pc`.
int successors(const FInstr& I, int pc, int out[2]) {
  switch (I.op) {
    case FOp::Jmp:
      out[0] = I.jump;
      return 1;
    case FOp::JmpIfFalse:
    case FOp::JmpIfTrue:
    case FOp::JmpIfGe:
    case FOp::Repeat:
      out[0] = pc + 1;
      out[1] = I.jump;
      return 2;
    case FOp::Halt:
      return 0;
    default:
      out[0] = pc + 1;
      return 1;
  }
}

// Run the flow to fixpoint under the current classes; returns true if some
// class was raised (caller re-runs until stable).
bool run_flow(Flow& F) {
  const auto n = static_cast<int>(F.code->size());
  F.states.assign(static_cast<std::size_t>(n), TagVec());
  F.reach.assign(static_cast<std::size_t>(n), 0);
  F.cls_changed = false;
  std::deque<int> work;
  std::vector<char> queued(static_cast<std::size_t>(n), 0);

  auto join_into = [&](int idx, const TagVec& s) {
    const auto ui = static_cast<std::size_t>(idx);
    bool changed = false;
    if (!F.reach[ui]) {
      F.states[ui] = s;
      F.reach[ui] = 1;
      changed = true;
    } else {
      TagVec& dst = F.states[ui];
      for (std::size_t r = 0; r < dst.size(); ++r) {
        const Tag j = join_tag(dst[r], s[r]);
        if (j != dst[r]) {
          dst[r] = j;
          changed = true;
        }
      }
    }
    if (changed && !queued[ui]) {
      queued[ui] = 1;
      work.push_back(idx);
    }
  };

  if (n > 0) join_into(0, F.entry);
  while (!work.empty()) {
    const int pc = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(pc)] = 0;
    const FInstr& I = (*F.code)[static_cast<std::size_t>(pc)];
    TagVec s = F.states[static_cast<std::size_t>(pc)];
    transfer(F, I, s);
    int succ[2];
    const int ns = successors(I, pc, succ);
    for (int k = 0; k < ns; ++k) {
      // Repeat's back edge (the second successor) starts the next firing.
      if (k == 1 && I.op == FOp::Repeat && I.sub != 0) reset_tags(F, I.a, s);
      join_into(succ[k], s);
    }
    // Fused registers persist across iterations: the trace's exit state
    // feeds the next iteration's entry.
    if (I.op == FOp::Halt && F.in->loop) join_into(0, s);
  }
  return F.cls_changed;
}

// Lowering context: the translation walk with refusal reporting.
struct Lower {
  Flow* F{nullptr};
  TypedCode* out{nullptr};
  std::string refusal;
  std::string actor;  // current actor name (fused traces)
  std::vector<char> written;

  [[nodiscard]] std::string site(const std::string& base) const {
    return actor.empty() ? base : base + ":" + actor;
  }

  bool fail(const std::string& why) {
    if (refusal.empty()) refusal = why;
    return false;
  }

  // A register read: Mixed refuses, otherwise reports the plane.
  bool read(const TagVec& s, std::uint16_t r, bool* dbl) {
    if (s[r] == Tag::Mixed) return fail(site("mixed-register"));
    *dbl = s[r] == Tag::Double;
    return true;
  }

  void note_write(std::uint16_t r, Tag t) {
    if (!written[r]) {
      written[r] = 1;
      out->reg_tag[r] = t;
    } else {
      out->reg_tag[r] = join_tag(out->reg_tag[r], t);
    }
  }
};

bool lower_one(Lower& L, const FInstr& I, const TagVec& s, TyInstr* T) {
  Flow& F = *L.F;
  bool ad = false, bd = false, dd = false;
  switch (I.op) {
    case FOp::Move: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD | kModeDD;
      L.note_write(I.dst, ad ? Tag::Double : Tag::Int);
      break;
    }
    case FOp::LoadScalar: {
      if (F.scls[I.a] == Tag::Double) T->mode = kModeDD;
      L.note_write(I.dst, F.scls[I.a]);
      break;
    }
    case FOp::StoreScalar: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (dd) T->mode = kModeDD;
      break;
    }
    case FOp::LoadElem: {
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((bd ? kModeBD : 0) |
                                          (F.acls[I.a] == Tag::Double
                                               ? kModeDD : 0));
      L.note_write(I.dst, F.acls[I.a]);
      break;
    }
    case FOp::StoreElem: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((dd ? kModeDD : 0) |
                                          (bd ? kModeBD : 0));
      break;
    }
    case FOp::Bin: {
      if (!L.read(s, I.a, &ad)) return false;
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) |
                                          (bd ? kModeBD : 0));
      const Tag rt = bin_result(static_cast<ir::BinOp>(I.sub),
                                ad ? Tag::Double : Tag::Int,
                                bd ? Tag::Double : Tag::Int);
      if (T->count == CountTag::ByResult) {
        T->count = rt == Tag::Int ? CountTag::IntOp : CountTag::Flop;
      }
      L.note_write(I.dst, rt);
      break;
    }
    case FOp::Un: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      const Tag rt = un_result(static_cast<ir::UnOp>(I.sub),
                               ad ? Tag::Double : Tag::Int);
      // The tree interpreter counts Neg/Abs (the only ByResult unaries) by
      // the *operand* tag; for both, result tag == operand tag.
      if (T->count == CountTag::ByResult) {
        T->count = ad ? CountTag::Flop : CountTag::IntOp;
      }
      L.note_write(I.dst, rt);
      break;
    }
    case FOp::Truthy: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      L.note_write(I.dst, Tag::Int);
      break;
    }
    case FOp::JmpIfFalse:
    case FOp::JmpIfTrue:
    case FOp::CheckStep: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      break;
    }
    case FOp::JmpIfGe: {
      if (!L.read(s, I.a, &ad)) return false;
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) |
                                          (bd ? kModeBD : 0));
      break;
    }
    case FOp::ForInc: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (!L.read(s, I.a, &ad)) return false;
      T->mode = static_cast<std::uint8_t>((dd ? kModeDD : 0) |
                                          (ad ? kModeAD : 0));
      L.note_write(I.dst, Tag::Int);
      break;
    }
    case FOp::RPeek:
    case FOp::TPeek: {
      if (!L.read(s, I.a, &ad)) return false;
      T->mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) | kModeDD);
      L.note_write(I.dst, Tag::Double);
      break;
    }
    case FOp::RPop:
    case FOp::TPop: {
      T->mode = kModeDD;
      L.note_write(I.dst, Tag::Double);
      break;
    }
    case FOp::RPopN:
    case FOp::TPopN: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      break;
    }
    case FOp::RPush:
    case FOp::TPush: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (dd) T->mode = kModeDD;
      break;
    }
    case FOp::SetActor: {
      if (F.in->fused) L.actor = F.in->fused->actors[I.a].name;
      break;
    }
    case FOp::ResetRegs: {
      const FusedActorMeta& m = F.in->fused->actors[I.a];
      for (std::size_t k = 0; k < m.reg_init.size(); ++k) {
        L.note_write(static_cast<std::uint16_t>(m.reg_base + k),
                     value_tag(m.reg_init[k]));
      }
      break;
    }
    case FOp::MacLoop: {
      const MacLoopArgs& M = (*F.in->macs)[I.a];
      if (s[M.ri] == Tag::Mixed || s[M.rhi] == Tag::Mixed ||
          s[M.rstep] == Tag::Mixed || s[M.acc] == Tag::Mixed) {
        return L.fail(L.site("mixed-register"));
      }
      // The raw double kernel needs Int bookkeeping, a Double accumulator,
      // and (mac form) an all-Double coefficient array.
      if (s[M.ri] != Tag::Int || s[M.rhi] != Tag::Int ||
          s[M.rstep] != Tag::Int || s[M.acc] != Tag::Double ||
          (M.has_array && F.acls[M.arr] != Tag::Double)) {
        return L.fail(L.site("super-untyped"));
      }
      L.note_write(M.acc, Tag::Double);
      L.note_write(M.slot, Tag::Int);
      L.note_write(M.ri, Tag::Int);
      break;
    }
    case FOp::PopComputePush: {
      const PcpArgs& P = F.in->fused->pcps[I.a];
      TagVec t = s;
      t[P.rpop] = Tag::Double;
      TypedPcp& tp = L.out->pcps[I.a];
      tp.tag = P.tag;
      if (P.kind == PcpArgs::Kind::Bin) {
        if (!L.read(t, P.a, &ad)) return false;
        if (!L.read(t, P.b, &bd)) return false;
        tp.mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) |
                                            (bd ? kModeBD : 0));
        const Tag rt = bin_result(static_cast<ir::BinOp>(P.sub),
                                  ad ? Tag::Double : Tag::Int,
                                  bd ? Tag::Double : Tag::Int);
        tp.res_double = rt == Tag::Double;
        if (tp.tag == CountTag::ByResult) {
          tp.tag = rt == Tag::Int ? CountTag::IntOp : CountTag::Flop;
        }
        L.note_write(P.rres, rt);
      } else if (P.kind == PcpArgs::Kind::Un) {
        if (!L.read(t, P.a, &ad)) return false;
        if (ad) tp.mode = kModeAD;
        const Tag rt = un_result(static_cast<ir::UnOp>(P.sub),
                                 ad ? Tag::Double : Tag::Int);
        tp.res_double = rt == Tag::Double;
        if (tp.tag == CountTag::ByResult) {
          tp.tag = ad ? CountTag::Flop : CountTag::IntOp;
        }
        L.note_write(P.rres, rt);
      } else {
        tp.res_double = true;
      }
      L.note_write(P.rpop, Tag::Double);
      break;
    }
    case FOp::CopyRun: {
      const CopyRunArgs& C = F.in->fused->copies[I.a];
      if (C.n > 0) L.note_write(C.reg, Tag::Double);
      break;
    }
    case FOp::Jmp:
    case FOp::Tally:
    case FOp::NativeFire:
    case FOp::Halt:
    // A re-templating Repeat writes what its loop's ResetRegs wrote.
    case FOp::Repeat:
      break;
  }
  return true;
}

}  // namespace

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::Int:
      return "int";
    case Tag::Double:
      return "double";
    case Tag::Mixed:
      return "mixed";
  }
  return "?";
}

bool typed_lower(const TypedLowerInput& in, TypedCode* out,
                 std::string* refusal) {
  Flow F;
  F.in = &in;
  F.code = in.code;
  F.entry.assign(in.num_regs, Tag::Int);
  for (std::size_t r = 0; r < in.reg_init.size() && r < in.num_regs; ++r) {
    F.entry[r] = value_tag(in.reg_init[r]);
  }
  F.scls = in.scalar_seed;
  F.acls = in.array_seed;

  // Classes are monotone, so this terminates in <= 2 raises per slot.
  while (run_flow(F)) {
  }

  Lower L;
  L.F = &F;
  L.out = out;
  out->code.clear();
  out->code.reserve(in.code->size());
  out->reg_tag.assign(in.num_regs, Tag::Int);
  out->scalar_class = F.scls;
  out->array_class = F.acls;
  out->push_tag = Tag::Double;
  bool pushed = false;
  out->pcps.assign(in.fused ? in.fused->pcps.size() : 0, TypedPcp{});
  L.written.assign(in.num_regs, 0);

  // A Mixed state class cannot live in either raw plane (and the fused
  // mirrors could not hold it); name the slot in the refusal.
  for (std::size_t sslot = 0; sslot < F.scls.size(); ++sslot) {
    if (F.scls[sslot] != Tag::Mixed) continue;
    std::string name = in.scalar_names && sslot < in.scalar_names->size()
                           ? (*in.scalar_names)[sslot]
                           : std::to_string(sslot);
    if (in.fused) {
      for (const auto& m : in.fused->actors) {
        if (sslot >= m.scalar_base && sslot < m.scalar_base + m.num_scalars) {
          name = m.name + "." + name;
          break;
        }
      }
    }
    if (refusal) *refusal = "mixed-state:" + name;
    return false;
  }
  for (std::size_t aslot = 0; aslot < F.acls.size(); ++aslot) {
    if (F.acls[aslot] != Tag::Mixed) continue;
    std::string name = in.array_names && aslot < in.array_names->size()
                           ? (*in.array_names)[aslot]
                           : std::to_string(aslot);
    if (in.fused) {
      for (const auto& m : in.fused->actors) {
        if (aslot >= m.array_base && aslot < m.array_base + m.num_arrays) {
          name = m.name + "." + name;
          break;
        }
      }
    }
    if (refusal) *refusal = "mixed-state:" + name;
    return false;
  }

  for (std::size_t pc = 0; pc < in.code->size(); ++pc) {
    const FInstr& I = (*in.code)[pc];
    TyInstr T;
    T.op = I.op;
    T.sub = I.sub;
    T.count = I.count;
    T.dst = I.dst;
    T.a = I.a;
    T.b = I.b;
    T.jump = I.jump;
    T.edge = I.edge;
    if (F.reach[pc]) {
      if (!lower_one(L, I, F.states[pc], &T)) {
        if (refusal) *refusal = L.refusal;
        return false;
      }
      if (I.op == FOp::RPush || I.op == FOp::TPush) {
        const Tag pt = (T.mode & kModeDD) != 0 ? Tag::Double : Tag::Int;
        out->push_tag = pushed ? join_tag(out->push_tag, pt) : pt;
        pushed = true;
      }
    } else {
      // Unreachable padding: keep indices/jumps aligned, never executed.
      T = TyInstr{};
      T.op = FOp::Halt;
    }
    out->code.push_back(T);
  }

  // Split the register template across the planes.
  out->dreg_init.assign(in.num_regs, 0.0);
  out->ireg_init.assign(in.num_regs, 0);
  auto place = [&](std::size_t r, const ir::Value& v) {
    if (v.is_int()) {
      out->ireg_init[r] = v.as_int();
    } else {
      out->dreg_init[r] = v.as_double();
    }
  };
  for (std::size_t r = 0; r < in.reg_init.size() && r < in.num_regs; ++r) {
    place(r, in.reg_init[r]);
  }
  if (in.fused) {
    for (const auto& m : in.fused->actors) {
      for (std::size_t k = 0; k < m.reg_init.size(); ++k) {
        place(m.reg_base + k, m.reg_init[k]);
      }
    }
  }

  // Never-written registers keep their template tag (pooled constants).
  for (std::size_t r = 0; r < in.num_regs; ++r) {
    if (!L.written[r]) out->reg_tag[r] = F.entry[r];
  }
  out->typed_regs = 0;
  for (const Tag t : out->reg_tag) {
    if (t == Tag::Double) ++out->typed_regs;
  }
  return true;
}

}  // namespace sit::runtime
