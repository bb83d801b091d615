#include "runtime/fused.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "runtime/compile.h"
#include "runtime/eval_ops.h"
#include "runtime/mac_loop.h"
#include "runtime/typed.h"

namespace sit::runtime {

using ir::BinOp;
using ir::UnOp;
using ir::Value;

namespace {

// Build refusals unwind through this; build_fused catches and reports.
struct BuildFail {
  std::string reason;
};

[[noreturn]] void fail(std::string reason) { throw BuildFail{std::move(reason)}; }

[[noreturn]] void buffer_peek_error(std::int64_t off, std::size_t live) {
  // Mirrors Channel::peek_item's message: the lowered buffer is the channel.
  throw std::runtime_error("peek(" + std::to_string(off) +
                           ") beyond channel contents (" +
                           std::to_string(live) + ")");
}

// ---- superinstruction selection ---------------------------------------------

// No instruction outside [start, start+len) may jump strictly inside it
// (jumps *at* start land on the superinstruction, which re-enters the
// pattern at its entry point -- safe).
bool region_clear(const std::vector<FInstr>& t, std::size_t start,
                  std::size_t len) {
  for (std::size_t j = 0; j < t.size(); ++j) {
    const std::int32_t tgt = t[j].jump;
    if (tgt > static_cast<std::int32_t>(start) &&
        tgt < static_cast<std::int32_t>(start + len)) {
      if (j < start || j >= start + len) return false;
    }
  }
  return true;
}

bool all_distinct(std::initializer_list<std::uint16_t> regs) {
  for (auto i = regs.begin(); i != regs.end(); ++i) {
    for (auto j = i + 1; j != regs.end(); ++j) {
      if (*i == *j) return false;
    }
  }
  return true;
}

bool is_peek(FOp op) { return op == FOp::TPeek || op == FOp::RPeek; }
bool is_pop(FOp op) { return op == FOp::TPop || op == FOp::RPop; }
bool is_push(FOp op) { return op == FOp::TPush || op == FOp::RPush; }

// The exact 9-instruction (array) / 7-instruction (sum) loop shape the
// bytecode compiler emits for `for (i) acc += peek(i) [* coef[i]]`:
//
//   i+0  jge  ri, rhi  -> end         i+0  jge  ri, rhi -> end
//   i+1  tally 2 (int)                i+1  tally 2 (int)
//   i+2  move slot, ri                i+2  move slot, ri
//   i+3  peek p, [slot]               i+3  peek p, [slot]
//   i+4  ld.e q, arr[slot]            i+4  bin add acc, acc, p
//   i+5  bin mul m, p, q              i+5  forinc ri, rstep
//   i+6  bin add acc, acc, m          i+6  jmp -> i
//   i+7  forinc ri, rstep
//   i+8  jmp -> i
bool match_mac(const std::vector<FInstr>& t, std::size_t i,
               MacLoopArgs* out, std::size_t* len) {
  const FInstr& I0 = t[i];
  if (I0.op != FOp::JmpIfGe) return false;
  const std::uint16_t ri = I0.a, rhi = I0.b;
  for (const bool has_array : {true, false}) {
    const std::size_t n = has_array ? 9 : 7;
    if (i + n > t.size()) continue;
    if (I0.jump != static_cast<std::int32_t>(i + n)) continue;
    const FInstr& tl = t[i + 1];
    if (tl.op != FOp::Tally || tl.sub != 2 || tl.count != CountTag::IntOp) continue;
    const FInstr& mv = t[i + 2];
    if (mv.op != FOp::Move || mv.a != ri) continue;
    const std::uint16_t slot = mv.dst;
    const FInstr& pk = t[i + 3];
    if (!is_peek(pk.op) || pk.a != slot) continue;
    const std::uint16_t p = pk.dst;
    MacLoopArgs M;
    M.ri = ri;
    M.rhi = rhi;
    M.slot = slot;
    M.p = p;
    M.edge = pk.edge;
    M.real = pk.op == FOp::RPeek;
    M.has_array = has_array;
    std::size_t k = i + 4;
    if (has_array) {
      const FInstr& ld = t[k];
      if (ld.op != FOp::LoadElem || ld.b != slot) continue;
      M.q = ld.dst;
      M.arr = ld.a;
      const FInstr& mul = t[k + 1];
      if (mul.op != FOp::Bin || static_cast<BinOp>(mul.sub) != BinOp::Mul ||
          mul.count != CountTag::ByResult) {
        continue;
      }
      if (!((mul.a == M.p && mul.b == M.q) || (mul.a == M.q && mul.b == M.p))) {
        continue;
      }
      M.m = mul.dst;
      k += 2;
    }
    const FInstr& add = t[k];
    const std::uint16_t addend = has_array ? M.m : M.p;
    if (add.op != FOp::Bin || static_cast<BinOp>(add.sub) != BinOp::Add ||
        add.count != CountTag::ByResult || add.dst != add.a ||
        add.b != addend) {
      continue;
    }
    M.acc = add.dst;
    const FInstr& inc = t[k + 1];
    if (inc.op != FOp::ForInc || inc.dst != ri) continue;
    M.rstep = inc.a;
    const FInstr& jb = t[k + 2];
    if (jb.op != FOp::Jmp || jb.jump != static_cast<std::int32_t>(i)) continue;
    // The registers the window writes must be distinct, and distinct from
    // the bound and step it only reads (those two may be one pooled
    // constant).
    const bool distinct =
        has_array ? all_distinct({M.ri, M.slot, M.p, M.q, M.m, M.acc})
                  : all_distinct({M.ri, M.slot, M.p, M.acc});
    if (!distinct) continue;
    const auto written = [&M, has_array](std::uint16_t r) {
      return r == M.ri || r == M.slot || r == M.p || r == M.acc ||
             (has_array && (r == M.q || r == M.m));
    };
    if (written(M.rhi) || written(M.rstep)) continue;
    if (!region_clear(t, i, n)) continue;
    *out = M;
    *len = n;
    return true;
  }
  return false;
}

// pop -> [compute] -> push, with nothing in between:
//   [pop r][push r]                       pop-push
//   [pop r][un  op d, r][push d]          pop-un-push
//   [pop r][bin op d, a, b][push d]       pop-bin-push  (r in {a, b})
bool match_pcp(const std::vector<FInstr>& t, std::size_t i, PcpArgs* out,
               std::size_t* len) {
  const FInstr& I0 = t[i];
  if (!is_pop(I0.op)) return false;
  const std::uint16_t r = I0.dst;
  PcpArgs P;
  P.in_edge = I0.edge;
  P.in_real = I0.op == FOp::RPop;
  P.rpop = r;
  if (i + 1 < t.size() && is_push(t[i + 1].op) && t[i + 1].dst == r) {
    P.kind = PcpArgs::Kind::Plain;
    P.rres = r;
    P.out_edge = t[i + 1].edge;
    P.out_real = t[i + 1].op == FOp::RPush;
    if (!region_clear(t, i, 2)) return false;
    *out = P;
    *len = 2;
    return true;
  }
  if (i + 2 >= t.size() || !is_push(t[i + 2].op)) return false;
  const FInstr& op = t[i + 1];
  const FInstr& ps = t[i + 2];
  if (ps.dst != op.dst) return false;
  if (op.op == FOp::Un && op.a == r) {
    P.kind = PcpArgs::Kind::Un;
  } else if (op.op == FOp::Bin && (op.a == r || op.b == r)) {
    P.kind = PcpArgs::Kind::Bin;
  } else {
    return false;
  }
  P.sub = op.sub;
  P.tag = op.count;
  P.a = op.a;
  P.b = op.b;
  P.rres = op.dst;
  P.out_edge = ps.edge;
  P.out_real = ps.op == FOp::RPush;
  if (!region_clear(t, i, 3)) return false;
  *out = P;
  *len = 3;
  return true;
}

}  // namespace

void select_superinstructions(std::vector<FInstr>& t,
                              std::vector<MacLoopArgs>& macs,
                              std::vector<PcpArgs>* pcps) {
  std::vector<FInstr> out;
  out.reserve(t.size());
  // new_index[old] for every old position, plus the one-past-the-end slot
  // (jump targets may point at the stripped Halt position).
  std::vector<std::int32_t> new_index(t.size() + 1, 0);
  std::size_t i = 0;
  while (i < t.size()) {
    MacLoopArgs M;
    PcpArgs P;
    std::size_t len = 0;
    FInstr I{};
    // An argument table is indexed by the 16-bit `a` field; once one is
    // full its pattern is simply left unfused.
    if (macs.size() < 0xFFFF && match_mac(t, i, &M, &len)) {
      I.op = FOp::MacLoop;
      I.a = static_cast<std::uint16_t>(macs.size());
      macs.push_back(M);
    } else if (pcps != nullptr && pcps->size() < 0xFFFF &&
               match_pcp(t, i, &P, &len)) {
      I.op = FOp::PopComputePush;
      I.a = static_cast<std::uint16_t>(pcps->size());
      pcps->push_back(P);
    } else {
      I = t[i];
      len = 1;
    }
    for (std::size_t k = 0; k < len; ++k) {
      new_index[i + k] = static_cast<std::int32_t>(out.size());
    }
    out.push_back(I);
    i += len;
  }
  new_index[t.size()] = static_cast<std::int32_t>(out.size());
  for (FInstr& J : out) {
    if (J.jump >= 0) J.jump = new_index[static_cast<std::size_t>(J.jump)];
  }
  t = std::move(out);
}

namespace {

// ---- builder ----------------------------------------------------------------

class TraceBuilder {
 public:
  TraceBuilder(const FlatGraph& g, const std::vector<int>& order,
               const std::vector<std::int64_t>& reps,
               const std::vector<std::int64_t>& carry,
               const std::vector<std::int64_t>& traffic)
      : g_(g), order_(order), reps_(reps), carry_(carry), traffic_(traffic) {}

  FusedProgramP build() {
    auto P = std::make_shared<FusedProgram>();
    prog_ = P.get();
    prog_->graph = &g_;
    prog_->order = order_;
    prog_->reps = reps_;

    prog_->edges.resize(g_.edges.size());
    for (std::size_t e = 0; e < g_.edges.size(); ++e) {
      FusedEdgeMeta& m = prog_->edges[e];
      m.internal = g_.edges[e].src >= 0 && g_.edges[e].dst >= 0;
      if (m.internal) {
        if (e >= carry_.size() || carry_[e] < 0 || traffic_[e] < 0) {
          fail("internal edge without carry/traffic sizing");
        }
        m.carry = carry_[e];
        m.traffic = traffic_[e];
        ++prog_->eliminated_channels;
      }
    }

    layout_actors();
    for (const int actor : order_) emit_actor(actor);
    prog_->code.push_back(FInstr{});  // Halt

    count_super();
    return P;
  }

 private:
  // Compile every AST filter once and assign each actor its slice of the
  // flat register / scalar-slot / array-slot files.
  void layout_actors() {
    const std::size_t n = g_.actors.size();
    if (n > 0xFFFF) fail("actor-id overflow");
    prog_->actors.resize(n);
    compiled_.resize(n);
    std::size_t reg_base = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const FlatActor& a = g_.actors[i];
      FusedActorMeta& meta = prog_->actors[i];
      meta.name = a.name;
      meta.reg_base = static_cast<std::uint32_t>(reg_base);
      meta.scalar_base = static_cast<std::uint32_t>(prog_->scalar_names.size());
      meta.array_base = static_cast<std::uint32_t>(prog_->array_names.size());
      switch (a.kind) {
        case FlatActor::Kind::Filter: {
          std::string why;
          compiled_[i] = compile_filter(a.node->filter, &why);
          if (!compiled_[i]) {
            fail(why == "teleport-send" ? why + ":" + a.name
                                        : "vm-fallback:" + a.name + " (" + why + ")");
          }
          const CompiledFilter& cf = *compiled_[i];
          meta.reg_init = cf.work.reg_init;
          meta.peek_window = cf.peek_window;
          for (const auto& s : cf.scalar_slots) prog_->scalar_names.push_back(s);
          for (const auto& s : cf.array_slots) prog_->array_names.push_back(s);
          meta.num_scalars = static_cast<std::uint32_t>(cf.scalar_slots.size());
          meta.num_arrays = static_cast<std::uint32_t>(cf.array_slots.size());
          reg_base += cf.work.reg_init.size();
          break;
        }
        case FlatActor::Kind::Native:
          meta.native = true;
          break;
        case FlatActor::Kind::Splitter:
        case FlatActor::Kind::Joiner:
          // One scratch register (holds the item in flight).
          meta.reg_init.emplace_back();
          reg_base += 1;
          break;
      }
      if (reg_base > 0xFFFF) fail("register-file-overflow");
    }
    prog_->num_regs = reg_base;
    if (prog_->scalar_names.size() > 0xFFFF ||
        prog_->array_names.size() > 0xFFFF) {
      fail("state-slot overflow");
    }
  }

  void emit_actor(int actor) {
    const auto ai = static_cast<std::size_t>(actor);
    const FlatActor& a = g_.actors[ai];
    FInstr set{};
    set.op = FOp::SetActor;
    set.a = static_cast<std::uint16_t>(actor);
    prog_->code.push_back(set);
    if (reps_[ai] <= 0) return;  // does not fire in the steady state

    switch (a.kind) {
      case FlatActor::Kind::Filter: {
        std::vector<FInstr> tmpl = translate_filter(actor);
        select_superinstructions(tmpl, prog_->macs, &prog_->pcps);
        FInstr reset{};
        reset.op = FOp::ResetRegs;
        reset.a = static_cast<std::uint16_t>(actor);
        prog_->code.push_back(reset);
        const std::size_t body = prog_->code.size();
        append_template(tmpl);
        close_loop(actor, body, /*retemplate=*/true);
        break;
      }
      case FlatActor::Kind::Native: {
        NativeFireArgs nf;
        nf.actor = actor;
        nf.in_edge = a.in_edges.empty() ? -1 : a.in_edges[0];
        nf.out_edge = a.out_edges.empty() ? -1 : a.out_edges[0];
        nf.in_real = nf.in_edge >= 0 && !edge_internal(nf.in_edge);
        nf.out_real = nf.out_edge >= 0 && !edge_internal(nf.out_edge);
        nf.flops = static_cast<std::int64_t>(a.node->native.cost_flops);
        nf.int_ops = static_cast<std::int64_t>(a.node->native.cost_ops -
                                               a.node->native.cost_flops);
        nf.channel = a.pop_rate() + a.push_rate();
        if (prog_->nats.size() >= 0xFFFF) fail("args-table overflow");
        FInstr I{};
        I.op = FOp::NativeFire;
        I.a = static_cast<std::uint16_t>(prog_->nats.size());
        prog_->nats.push_back(nf);
        const std::size_t body = prog_->code.size();
        prog_->code.push_back(I);
        close_loop(actor, body, /*retemplate=*/false);
        break;
      }
      case FlatActor::Kind::Splitter:
      case FlatActor::Kind::Joiner: {
        const std::size_t body = prog_->code.size();
        emit_sj_firing(actor);
        // A firing that is one copy-run/dup-run merges with its neighbours
        // into a single run of reps x the items; anything else loops.
        if (prog_->code.size() == body + 1 &&
            prog_->code.back().op == FOp::CopyRun) {
          prog_->copies[prog_->code.back().a].n *= reps_[ai];
        } else {
          close_loop(actor, body, /*retemplate=*/false);
        }
        break;
      }
    }
  }

  // Close actor `actor`'s loop over the body starting at `body`: a Repeat
  // back to it, unless the actor fires once per iteration.
  void close_loop(int actor, std::size_t body, bool retemplate) {
    if (reps_[static_cast<std::size_t>(actor)] <= 1) return;
    FInstr rep{};
    rep.op = FOp::Repeat;
    rep.sub = retemplate ? 1 : 0;
    rep.a = static_cast<std::uint16_t>(actor);
    rep.jump = static_cast<std::int32_t>(body);
    prog_->code.push_back(rep);
  }

  [[nodiscard]] bool edge_internal(int e) const {
    return prog_->edges[static_cast<std::size_t>(e)].internal;
  }

  // ---- filter template translation ------------------------------------------

  // Lower the compiled per-actor bytecode into trace form: registers and
  // state slots rebased, channel ops bound to this actor's edges.  Jumps stay
  // template-relative (an index == template length means "fall off the end",
  // where the VM's Halt sat).
  std::vector<FInstr> translate_filter(int actor) {
    const auto ai = static_cast<std::size_t>(actor);
    const FlatActor& a = g_.actors[ai];
    const FusedActorMeta& meta = prog_->actors[ai];
    const CompiledProgram& w = compiled_[ai]->work;
    const int in_e = a.in_edges.empty() ? -1 : a.in_edges[0];
    const int out_e = a.out_edges.empty() ? -1 : a.out_edges[0];

    const auto reg = [&](std::uint16_t r) {
      return static_cast<std::uint16_t>(meta.reg_base + r);
    };
    std::vector<FInstr> t;
    t.reserve(w.code.size());
    for (const VmInstr& V : w.code) {
      if (V.op == VmOp::Halt) break;  // exactly one, at the end
      FInstr I{};
      I.sub = V.sub;
      I.count = V.count;
      I.dst = V.dst;
      I.a = V.a;
      I.b = V.b;
      I.jump = V.jump;
      switch (V.op) {
        case VmOp::Move: I.op = FOp::Move; I.dst = reg(V.dst); I.a = reg(V.a); break;
        case VmOp::LoadScalar:
          I.op = FOp::LoadScalar;
          I.dst = reg(V.dst);
          I.a = static_cast<std::uint16_t>(meta.scalar_base + V.a);
          break;
        case VmOp::StoreScalar:
          I.op = FOp::StoreScalar;
          I.dst = reg(V.dst);
          I.a = static_cast<std::uint16_t>(meta.scalar_base + V.a);
          break;
        case VmOp::LoadElem:
          I.op = FOp::LoadElem;
          I.dst = reg(V.dst);
          I.a = static_cast<std::uint16_t>(meta.array_base + V.a);
          I.b = reg(V.b);
          break;
        case VmOp::StoreElem:
          I.op = FOp::StoreElem;
          I.dst = reg(V.dst);
          I.a = static_cast<std::uint16_t>(meta.array_base + V.a);
          I.b = reg(V.b);
          break;
        case VmOp::Peek:
          if (in_e < 0) fail("peek without an input edge in '" + a.name + "'");
          I.op = edge_internal(in_e) ? FOp::TPeek : FOp::RPeek;
          I.dst = reg(V.dst);
          I.a = reg(V.a);
          I.edge = in_e;
          break;
        case VmOp::Pop:
          if (in_e < 0) fail("pop without an input edge in '" + a.name + "'");
          I.op = edge_internal(in_e) ? FOp::TPop : FOp::RPop;
          I.dst = reg(V.dst);
          I.edge = in_e;
          break;
        case VmOp::PopN:
          if (in_e < 0) fail("pop without an input edge in '" + a.name + "'");
          I.op = edge_internal(in_e) ? FOp::TPopN : FOp::RPopN;
          I.a = reg(V.a);
          I.edge = in_e;
          break;
        case VmOp::Push:
          if (out_e < 0) fail("push without an output edge in '" + a.name + "'");
          I.op = edge_internal(out_e) ? FOp::TPush : FOp::RPush;
          I.dst = reg(V.dst);
          I.edge = out_e;
          break;
        case VmOp::Bin: I.op = FOp::Bin; I.dst = reg(V.dst); I.a = reg(V.a); I.b = reg(V.b); break;
        case VmOp::Un: I.op = FOp::Un; I.dst = reg(V.dst); I.a = reg(V.a); break;
        case VmOp::Truthy: I.op = FOp::Truthy; I.dst = reg(V.dst); I.a = reg(V.a); break;
        case VmOp::Jmp: I.op = FOp::Jmp; break;
        case VmOp::JmpIfFalse: I.op = FOp::JmpIfFalse; I.a = reg(V.a); break;
        case VmOp::JmpIfTrue: I.op = FOp::JmpIfTrue; I.a = reg(V.a); break;
        case VmOp::JmpIfGe: I.op = FOp::JmpIfGe; I.a = reg(V.a); I.b = reg(V.b); break;
        case VmOp::CheckStep: I.op = FOp::CheckStep; I.a = reg(V.a); break;
        case VmOp::ForInc: I.op = FOp::ForInc; I.dst = reg(V.dst); I.a = reg(V.a); break;
        case VmOp::Tally: I.op = FOp::Tally; break;
        case VmOp::Halt: break;  // unreachable
      }
      t.push_back(I);
    }
    return t;
  }

  // Append a (peepholed) template to the trace, relocating jumps.
  void append_template(const std::vector<FInstr>& tmpl) {
    const auto base = static_cast<std::int32_t>(prog_->code.size());
    for (const FInstr& I : tmpl) {
      prog_->code.push_back(I);
      if (I.jump >= 0) prog_->code.back().jump = base + I.jump;
    }
  }

  // ---- splitter / joiner synthesis ------------------------------------------

  // One firing, with counting identical to Executor::fire: a round-robin
  // splitter counts 2 per item even on a dangling branch; a duplicate
  // splitter counts 1 + fan-out per firing; a joiner skips dangling inputs
  // entirely.  Runs of identical item moves become copy-run/dup-run
  // superinstructions (a firing that is one run folds all reps[a] firings
  // into it, in emit_actor).
  void emit_sj_firing(int actor) {
    const auto ai = static_cast<std::size_t>(actor);
    const FlatActor& a = g_.actors[ai];
    const auto reg =
        static_cast<std::uint16_t>(prog_->actors[ai].reg_base);
    if (a.kind == FlatActor::Kind::Splitter) {
      const int in_e = a.in_edges.empty() ? -1 : a.in_edges[0];
      if (in_e < 0) fail("splitter without an input edge in '" + a.name + "'");
      if (a.sj == ir::SJKind::Duplicate) {
        CopyRunArgs C;
        C.src = in_e;
        C.src_real = !edge_internal(in_e);
        C.n = 1;
        C.reg = reg;
        int dangling = 0;
        for (const int eid : a.out_edges) {
          if (eid >= 0) {
            C.dst.push_back(eid);
            C.dst_real.push_back(edge_internal(eid) ? 0 : 1);
          } else {
            ++dangling;
          }
        }
        if (dangling == 0 && !C.dst.empty()) {
          append_copy(std::move(C));
        } else {
          emit_raw_move(in_e, reg, C.dst, /*extra_channel=*/dangling);
        }
      } else {
        for (std::size_t p = 0; p < a.out_rate.size(); ++p) {
          const int w = a.out_rate[p];
          if (w <= 0) continue;
          const int eid = p < a.out_edges.size() ? a.out_edges[p] : -1;
          if (eid >= 0) {
            CopyRunArgs C;
            C.src = in_e;
            C.src_real = !edge_internal(in_e);
            C.dst.push_back(eid);
            C.dst_real.push_back(edge_internal(eid) ? 0 : 1);
            C.n = w;
            C.reg = reg;
            append_copy(std::move(C));
          } else {
            for (int k = 0; k < w; ++k) emit_raw_move(in_e, reg, {}, 1);
          }
        }
      }
    } else {  // Joiner
      const int out_e = a.out_edges.empty() ? -1 : a.out_edges[0];
      if (out_e < 0) fail("joiner without an output edge in '" + a.name + "'");
      for (std::size_t p = 0; p < a.in_rate.size(); ++p) {
        const int w = a.in_rate[p];
        if (w <= 0) continue;
        const int eid = p < a.in_edges.size() ? a.in_edges[p] : -1;
        if (eid < 0) continue;  // Executor skips dangling inputs, uncounted
        CopyRunArgs C;
        C.src = eid;
        C.src_real = !edge_internal(eid);
        C.dst.push_back(out_e);
        C.dst_real.push_back(edge_internal(out_e) ? 0 : 1);
        C.n = w;
        C.reg = reg;
        append_copy(std::move(C));
      }
    }
  }

  // pop src -> push each dst, plus `extra_channel` counted-but-unrouted items
  // (a dangling splitter branch still counts its channel traffic).
  void emit_raw_move(int src, std::uint16_t reg,
                     const std::vector<std::int32_t>& dst, int extra_channel) {
    FInstr pop{};
    pop.op = edge_internal(src) ? FOp::TPop : FOp::RPop;
    pop.count = CountTag::Channel;
    pop.dst = reg;
    pop.edge = src;
    prog_->code.push_back(pop);
    for (const std::int32_t d : dst) {
      FInstr push{};
      push.op = edge_internal(d) ? FOp::TPush : FOp::RPush;
      push.count = CountTag::Channel;
      push.dst = reg;
      push.edge = d;
      prog_->code.push_back(push);
    }
    while (extra_channel > 0) {
      const int chunk = extra_channel > 255 ? 255 : extra_channel;
      FInstr tally{};
      tally.op = FOp::Tally;
      tally.sub = static_cast<std::uint8_t>(chunk);
      tally.count = CountTag::Channel;
      prog_->code.push_back(tally);
      extra_channel -= chunk;
    }
  }

  // Append a copy-run.  (Every port has its own edge, so two runs of one
  // firing never move between the same edges; only whole firings merge, in
  // emit_actor.)
  void append_copy(CopyRunArgs args) {
    if (prog_->copies.size() >= 0xFFFF) fail("args-table overflow");
    FInstr I{};
    I.op = FOp::CopyRun;
    I.a = static_cast<std::uint16_t>(prog_->copies.size());
    prog_->copies.push_back(std::move(args));
    prog_->code.push_back(I);
  }

  // Instances per iteration: a superinstruction inside an actor's loop
  // counts once per pass.
  void count_super() {
    const std::vector<FInstr>& code = prog_->code;
    std::vector<std::int64_t> weight(code.size(), 1);
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      if (code[pc].op != FOp::Repeat) continue;
      const std::int64_t n = prog_->reps[code[pc].a];
      for (auto k = static_cast<std::size_t>(code[pc].jump); k < pc; ++k) {
        weight[k] = n;
      }
    }
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      const FInstr& I = code[pc];
      const char* name = nullptr;
      switch (I.op) {
        case FOp::MacLoop:
          name = prog_->macs[I.a].has_array ? "mac-loop" : "sum-loop";
          break;
        case FOp::PopComputePush:
          switch (prog_->pcps[I.a].kind) {
            case PcpArgs::Kind::Plain: name = "pop-push"; break;
            case PcpArgs::Kind::Bin: name = "pop-bin-push"; break;
            case PcpArgs::Kind::Un: name = "pop-un-push"; break;
          }
          break;
        case FOp::CopyRun:
          name = prog_->copies[I.a].dst.size() > 1 ? "dup-run" : "copy-run";
          break;
        default:
          break;
      }
      if (name != nullptr) prog_->super[name] += weight[pc];
    }
  }

  const FlatGraph& g_;
  const std::vector<int>& order_;
  const std::vector<std::int64_t>& reps_;
  const std::vector<std::int64_t>& carry_;
  const std::vector<std::int64_t>& traffic_;
  FusedProgram* prog_{nullptr};
  std::vector<CompiledFilterP> compiled_;
};

}  // namespace

FusedProgramP build_fused(const FlatGraph& g, const std::vector<int>& order,
                          const std::vector<std::int64_t>& reps,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          std::string* reason) {
  try {
    return TraceBuilder(g, order, reps, carry, traffic).build();
  } catch (const BuildFail& f) {
    if (reason) *reason = f.reason;
    return nullptr;
  }
}

// ---- disassembly ------------------------------------------------------------

namespace {

const char* fop_name(FOp op) {
  switch (op) {
    case FOp::Move: return "move";
    case FOp::LoadScalar: return "ld.s";
    case FOp::StoreScalar: return "st.s";
    case FOp::LoadElem: return "ld.e";
    case FOp::StoreElem: return "st.e";
    case FOp::Bin: return "bin";
    case FOp::Un: return "un";
    case FOp::Truthy: return "truthy";
    case FOp::Jmp: return "jmp";
    case FOp::JmpIfFalse: return "jf";
    case FOp::JmpIfTrue: return "jt";
    case FOp::JmpIfGe: return "jge";
    case FOp::CheckStep: return "chkstep";
    case FOp::ForInc: return "forinc";
    case FOp::Tally: return "tally";
    case FOp::RPeek: return "r.peek";
    case FOp::RPop: return "r.pop";
    case FOp::RPopN: return "r.popn";
    case FOp::RPush: return "r.push";
    case FOp::TPeek: return "t.peek";
    case FOp::TPop: return "t.pop";
    case FOp::TPopN: return "t.popn";
    case FOp::TPush: return "t.push";
    case FOp::SetActor: return "setactor";
    case FOp::ResetRegs: return "resetregs";
    case FOp::Repeat: return "repeat";
    case FOp::MacLoop: return "macloop";
    case FOp::PopComputePush: return "pcp";
    case FOp::CopyRun: return "copyrun";
    case FOp::NativeFire: return "nativefire";
    case FOp::Halt: return "halt";
  }
  return "?";
}

}  // namespace

std::string FusedProgram::disassemble() const {
  std::string out;
  out += "; fused steady-state trace: " + std::to_string(code.size()) +
         " instruction(s), " + std::to_string(num_regs) + " register(s), " +
         std::to_string(eliminated_channels) + " channel(s) lowered\n";
  for (const auto& [name, n] : super) {
    out += ";   super " + name + " x " + std::to_string(n) + "\n";
  }
  for (std::size_t i = 0; i < code.size(); ++i) {
    const FInstr& I = code[i];
    out += std::to_string(i) + ": " + fop_name(I.op);
    switch (I.op) {
      case FOp::Bin:
        out += " " + std::string(ir::to_string(static_cast<BinOp>(I.sub)));
        break;
      case FOp::Un:
        out += " " + std::string(ir::to_string(static_cast<UnOp>(I.sub)));
        break;
      case FOp::SetActor:
      case FOp::ResetRegs:
        out += " " + actors[I.a].name;
        break;
      case FOp::Repeat:
        out += " ×" + std::to_string(reps[I.a]) + " " + actors[I.a].name;
        break;
      case FOp::MacLoop: {
        const MacLoopArgs& M = macs[I.a];
        out += std::string(" ; ") + (M.has_array ? "mac-loop" : "sum-loop") +
               " acc=r" + std::to_string(M.acc) + " i=r" +
               std::to_string(M.ri) + " hi=r" + std::to_string(M.rhi);
        if (M.has_array) out += " coef=" + array_names[M.arr];
        out += " edge=" + std::to_string(M.edge) + (M.real ? " (ring)" : "");
        break;
      }
      case FOp::PopComputePush: {
        const PcpArgs& P = pcps[I.a];
        switch (P.kind) {
          case PcpArgs::Kind::Plain: out += " ; pop-push"; break;
          case PcpArgs::Kind::Bin:
            out += " ; pop-bin-push " +
                   std::string(ir::to_string(static_cast<BinOp>(P.sub)));
            break;
          case PcpArgs::Kind::Un:
            out += " ; pop-un-push " +
                   std::string(ir::to_string(static_cast<UnOp>(P.sub)));
            break;
        }
        out += " in=" + std::to_string(P.in_edge) +
               " out=" + std::to_string(P.out_edge);
        break;
      }
      case FOp::CopyRun: {
        const CopyRunArgs& C = copies[I.a];
        out += std::string(" ; ") +
               (C.dst.size() > 1 ? "dup-run" : "copy-run") + " n=" +
               std::to_string(C.n) + " src=" + std::to_string(C.src) + " dst=";
        for (std::size_t d = 0; d < C.dst.size(); ++d) {
          out += (d ? "," : "") + std::to_string(C.dst[d]);
        }
        break;
      }
      case FOp::NativeFire:
        out += " " + actors[static_cast<std::size_t>(nats[I.a].actor)].name;
        break;
      default:
        out += " dst=r" + std::to_string(I.dst) + " a=" + std::to_string(I.a) +
               " b=" + std::to_string(I.b);
        break;
    }
    if (I.jump >= 0) out += " ->" + std::to_string(I.jump);
    if (I.edge >= 0) out += " edge=" + std::to_string(I.edge);
    out += "\n";
  }
  return out;
}

// ---- typed (dual-plane) fused execution -------------------------------------
//
// TypedFusedExec runs the trace instruction for instruction with the per-actor
// VM's op counting and the same error strings thrown in the same order.  What
// typeflow proved safe lets it go further: registers and (for the duration of
// an activation) filter state live in raw planes, CountTag::ByResult is
// pre-resolved, and the mac-loop superinstruction runs as a raw double*
// kernel when a hoisted precheck shows no per-element check can fire.

TypedFusedProgramP build_typed_fused(const FusedProgramP& base,
                                     const std::vector<FilterState>& states,
                                     std::string* refusal) {
  if (!base) return nullptr;
  TypedLowerInput in;
  in.code = &base->code;
  in.num_regs = base->num_regs;
  in.scalar_names = &base->scalar_names;
  in.array_names = &base->array_names;
  in.fused = base.get();
  in.macs = &base->macs;
  in.loop = true;  // fused registers persist across iterations
  // Seed the state classes from the current (post-init) tags, per actor.
  in.scalar_seed.assign(base->scalar_names.size(), Tag::Int);
  in.array_seed.assign(base->array_names.size(), Tag::Int);
  for (std::size_t i = 0; i < base->actors.size(); ++i) {
    const FusedActorMeta& m = base->actors[i];
    const FilterState& st = states[i];
    for (std::uint32_t k = 0; k < m.num_scalars; ++k) {
      const std::string& name = base->scalar_names[m.scalar_base + k];
      auto it = st.scalars.find(name);
      if (it == st.scalars.end()) {
        if (refusal) *refusal = "unbound-state:" + m.name + "." + name;
        return nullptr;
      }
      in.scalar_seed[m.scalar_base + k] = value_tag(it->second);
    }
    for (std::uint32_t k = 0; k < m.num_arrays; ++k) {
      const std::string& name = base->array_names[m.array_base + k];
      auto it = st.arrays.find(name);
      if (it == st.arrays.end()) {
        if (refusal) *refusal = "unbound-state:" + m.name + "." + name;
        return nullptr;
      }
      in.array_seed[m.array_base + k] = array_tag(it->second);
    }
  }

  auto out = std::make_shared<TypedFusedProgram>();
  out->base = base;
  if (!typed_lower(in, &out->code, refusal)) return nullptr;
  return out;
}

// Uncounted tape adapters over a lowered edge for NativeFire (native filters
// count statically, exactly like Executor::fire does for them).
class TypedFusedExec::BufIn final : public ir::InTape {
 public:
  explicit BufIn(EdgeState& s) : s_(s) {}
  double peek_item(int offset) override {
    if (offset < 0 || s_.rd + static_cast<std::size_t>(offset) >= s_.wr) {
      buffer_peek_error(offset, s_.wr - s_.rd);
    }
    return s_.buf[s_.rd + static_cast<std::size_t>(offset)];
  }
  double pop_item() override {
    if (s_.rd >= s_.wr) throw std::runtime_error("pop from empty channel");
    return s_.buf[s_.rd++];
  }
  void pop_many(int n) override {
    if (n <= 0) return;
    if (s_.rd + static_cast<std::size_t>(n) > s_.wr) {
      throw std::runtime_error("pop from empty channel");
    }
    s_.rd += static_cast<std::size_t>(n);
  }

 private:
  EdgeState& s_;
};

class TypedFusedExec::BufOut final : public ir::OutTape {
 public:
  explicit BufOut(EdgeState& s) : s_(s) {}
  void push_item(double v) override {
    if (s_.wr >= s_.buf.size()) {
      throw std::logic_error("fused trace buffer overflow");
    }
    s_.buf[s_.wr++] = v;
  }

 private:
  EdgeState& s_;
};

TypedFusedExec::TypedFusedExec(
    TypedFusedProgramP prog, std::vector<FilterState>& states,
    const std::vector<std::unique_ptr<Channel>>& chans,
    const std::vector<std::unique_ptr<ir::NativeState>>& nstates)
    : prog_(std::move(prog)) {
  const FusedProgram& base = *prog_->base;
  // Registers start as the bytecode template's Value() does: int 0 in both
  // planes.  Every actor's ResetRegs re-templates its slice before any read.
  dregs_.assign(base.num_regs, 0.0);
  iregs_.assign(base.num_regs, 0);
  scalar_vals_.resize(base.scalar_names.size());
  array_vals_.resize(base.array_names.size());
  dscalars_.assign(base.scalar_names.size(), 0.0);
  iscalars_.assign(base.scalar_names.size(), 0);
  darrays_.resize(base.array_names.size());
  iarrays_.resize(base.array_names.size());
  for (std::size_t i = 0; i < base.actors.size(); ++i) {
    const FusedActorMeta& m = base.actors[i];
    FilterState& st = states[i];
    for (std::uint32_t k = 0; k < m.num_scalars; ++k) {
      const std::string& name = base.scalar_names[m.scalar_base + k];
      auto it = st.scalars.find(name);
      if (it == st.scalars.end()) {
        throw std::logic_error("fused bind: state has no scalar '" + name + "'");
      }
      scalar_vals_[m.scalar_base + k] = &it->second;
    }
    for (std::uint32_t k = 0; k < m.num_arrays; ++k) {
      const std::string& name = base.array_names[m.array_base + k];
      auto it = st.arrays.find(name);
      if (it == st.arrays.end()) {
        throw std::logic_error("fused bind: state has no array '" + name + "'");
      }
      array_vals_[m.array_base + k] = &it->second;
    }
  }
  chans_.reserve(chans.size());
  for (const auto& c : chans) chans_.push_back(c.get());
  nstates_.reserve(nstates.size());
  for (const auto& s : nstates) nstates_.push_back(s.get());
  ebuf_.resize(base.edges.size());
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (m.internal) {
      ebuf_[e].buf.resize(static_cast<std::size_t>(m.carry + m.traffic));
    }
  }
}

bool TypedFusedExec::sync_state_in() {
  const TypedCode& c = prog_->code;
  for (std::size_t s = 0; s < scalar_vals_.size(); ++s) {
    const ir::Value& v = *scalar_vals_[s];
    if (value_tag(v) != c.scalar_class[s]) return false;
    if (c.scalar_class[s] == Tag::Double) {
      dscalars_[s] = v.as_double();
    } else {
      iscalars_[s] = v.as_int();
    }
  }
  for (std::size_t a = 0; a < array_vals_.size(); ++a) {
    const std::vector<ir::Value>& arr = *array_vals_[a];
    if (c.array_class[a] == Tag::Double) {
      darrays_[a].resize(arr.size());
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (arr[i].is_int()) return false;
        darrays_[a][i] = arr[i].as_double();
      }
    } else {
      iarrays_[a].resize(arr.size());
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (!arr[i].is_int()) return false;
        iarrays_[a][i] = arr[i].as_int();
      }
    }
  }
  return true;
}

void TypedFusedExec::sync_state_out() {
  const TypedCode& c = prog_->code;
  for (std::size_t s = 0; s < scalar_vals_.size(); ++s) {
    *scalar_vals_[s] = c.scalar_class[s] == Tag::Double
                           ? ir::Value(dscalars_[s])
                           : ir::Value(iscalars_[s]);
  }
  for (std::size_t a = 0; a < array_vals_.size(); ++a) {
    std::vector<ir::Value>& arr = *array_vals_[a];
    if (c.array_class[a] == Tag::Double) {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        arr[i] = ir::Value(darrays_[a][i]);
      }
    } else {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        arr[i] = ir::Value(iarrays_[a][i]);
      }
    }
  }
}

bool TypedFusedExec::activate() {
  if (active_) return true;
  const FusedProgram& base = *prog_->base;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (m.internal &&
        chans_[e]->size() != static_cast<std::size_t>(m.carry)) {
      return false;  // graph is mid-iteration (manual fire); run per-actor
    }
  }
  // A state tag drifting from its inferred class (e.g. a handler retagged a
  // scalar since specialization) refuses cleanly; the caller runs the
  // iteration per-actor.  Nothing is mutated on this path.
  if (!sync_state_in()) return false;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (!m.internal) continue;
    EdgeState& s = ebuf_[e];
    chans_[e]->drain_items(s.buf.data());
    s.rd = 0;
    s.wr = static_cast<std::size_t>(m.carry);
  }
  active_ = true;
  return true;
}

void TypedFusedExec::deactivate() {
  if (!active_) return;
  const FusedProgram& base = *prog_->base;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (!m.internal) continue;
    EdgeState& s = ebuf_[e];
    chans_[e]->restore_items(s.buf.data(), static_cast<std::size_t>(m.carry));
    s.rd = s.wr = 0;
  }
  sync_state_out();
  active_ = false;
}

void TypedFusedExec::run_iteration(OpCounts* actor_counts) {
  if (!active_) {
    throw std::logic_error("TypedFusedExec::run_iteration before activate()");
  }
  if (actor_counts != nullptr) {
    run<true>(actor_counts);
  } else {
    run<false>(nullptr);
  }
  finish_iteration();
}

void TypedFusedExec::finish_iteration() {
  const FusedProgram& base = *prog_->base;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (!m.internal) continue;
    EdgeState& s = ebuf_[e];
    const auto carry = static_cast<std::size_t>(m.carry);
    const auto traffic = static_cast<std::size_t>(m.traffic);
    if (s.rd != traffic || s.wr != carry + traffic) {
      throw std::logic_error("fused trace left channel " + std::to_string(e) +
                             " at an unexpected level");
    }
    if (traffic > 0 && carry > 0) {
      std::memmove(s.buf.data(), s.buf.data() + traffic,
                   carry * sizeof(double));
    }
    s.rd = 0;
    s.wr = carry;
    chans_[e]->advance_counters(static_cast<std::int64_t>(traffic),
                                static_cast<std::int64_t>(traffic));
  }
}

template <bool kCount>
void TypedFusedExec::run(OpCounts* actor_counts) {
  const FusedProgram& base = *prog_->base;
  double* const dr = dregs_.data();
  std::int64_t* const ir_ = iregs_.data();
  const TyInstr* const code = prog_->code.code.data();
  EdgeState* const ebuf = ebuf_.data();
  const bool debug = debug_channel_checks();
  OpCounts* cur = nullptr;
  const FusedActorMeta* meta = nullptr;
  std::int64_t window = 0;
  std::int64_t pops = 0;
  std::int64_t pass = 0;  // completed passes of the current actor's loop
  std::int32_t pc = 0;

  // ByResult was resolved at lowering, so every tally is a single add.
  const auto tally = [&](CountTag tag) {
    if constexpr (kCount) {
      switch (tag) {
        case CountTag::None: break;
        case CountTag::IntOp: ++cur->int_ops; break;
        case CountTag::Flop: ++cur->flops; break;
        case CountTag::Div: ++cur->divs; break;
        case CountTag::Trans: ++cur->trans; break;
        case CountTag::Mem: ++cur->mem; break;
        case CountTag::Channel: ++cur->channel; break;
        case CountTag::ByResult: break;  // never emitted by typed_lower
      }
    } else {
      (void)tag;
    }
  };

  // A firing's start: re-template both plane slices of the actor's
  // registers (typed_lower split m.reg_init across them; the off-plane cells
  // are zero, which no read can observe) and restart the peek window.
  const auto reset_regs = [&](std::uint16_t actor) {
    const FusedActorMeta& m = base.actors[actor];
    const std::size_t nr = m.reg_init.size();
    std::copy_n(prog_->code.dreg_init.data() + m.reg_base, nr,
                dr + m.reg_base);
    std::copy_n(prog_->code.ireg_init.data() + m.reg_base, nr,
                ir_ + m.reg_base);
    pops = 0;
  };

  const auto tpop = [&](std::int32_t e) {
    EdgeState& s = ebuf[e];
    if (s.rd >= s.wr) throw std::runtime_error("pop from empty channel");
    return s.buf[s.rd++];
  };
  const auto tpush = [&](std::int32_t e, double v) {
    EdgeState& s = ebuf[e];
    if (s.wr >= s.buf.size()) {
      throw std::logic_error("fused trace buffer overflow");
    }
    s.buf[s.wr++] = v;
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
          ir_[I.dst] = ir_[I.a];
        }
        ++pc;
        break;
      case FOp::LoadScalar:
        if constexpr (kCount) ++cur->mem;
        if (dd) {
          dr[I.dst] = dscalars_[I.a];
        } else {
          ir_[I.dst] = iscalars_[I.a];
        }
        ++pc;
        break;
      case FOp::StoreScalar:
        if constexpr (kCount) ++cur->mem;
        if (dd) {
          dscalars_[I.a] = dr[I.dst];
        } else {
          iscalars_[I.a] = ir_[I.dst];
        }
        ++pc;
        break;
      case FOp::LoadElem: {
        const std::int64_t idx = typed_geti(dr, ir_, I.b, bd);
        if (dd) {
          const auto& arr = darrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array index out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          dr[I.dst] = arr[static_cast<std::size_t>(idx)];
        } else {
          const auto& arr = iarrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array index out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          ir_[I.dst] = arr[static_cast<std::size_t>(idx)];
        }
        ++pc;
        break;
      }
      case FOp::StoreElem: {
        const std::int64_t idx = typed_geti(dr, ir_, I.b, bd);
        if (dd) {
          auto& arr = darrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array store out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          arr[static_cast<std::size_t>(idx)] = dr[I.dst];
        } else {
          auto& arr = iarrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array store out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          arr[static_cast<std::size_t>(idx)] = ir_[I.dst];
        }
        ++pc;
        break;
      }
      case FOp::Bin:
        tally(I.count);
        typed_bin(static_cast<BinOp>(I.sub), dr, ir_, I.dst, I.a, I.b, I.mode);
        ++pc;
        break;
      case FOp::Un:
        tally(I.count);
        typed_un(static_cast<UnOp>(I.sub), dr, ir_, I.dst, I.a, I.mode);
        ++pc;
        break;
      case FOp::Truthy:
        ir_[I.dst] = typed_truthy(dr, ir_, I.a, ad) ? 1 : 0;
        ++pc;
        break;
      case FOp::Jmp:
        pc = I.jump;
        break;
      case FOp::JmpIfFalse:
        pc = typed_truthy(dr, ir_, I.a, ad) ? pc + 1 : I.jump;
        break;
      case FOp::JmpIfTrue:
        pc = typed_truthy(dr, ir_, I.a, ad) ? I.jump : pc + 1;
        break;
      case FOp::JmpIfGe:
        pc = typed_geti(dr, ir_, I.a, ad) >= typed_geti(dr, ir_, I.b, bd)
                 ? I.jump
                 : pc + 1;
        break;
      case FOp::CheckStep:
        if (typed_geti(dr, ir_, I.a, ad) <= 0) {
          throw std::runtime_error("for loop step must be positive");
        }
        ++pc;
        break;
      case FOp::ForInc:
        ir_[I.dst] =
            typed_geti(dr, ir_, I.dst, dd) + typed_geti(dr, ir_, I.a, ad);
        ++pc;
        break;
      case FOp::Tally:
        if constexpr (kCount) {
          switch (I.count) {
            case CountTag::IntOp: cur->int_ops += I.sub; break;
            case CountTag::Channel: cur->channel += I.sub; break;
            case CountTag::Flop: cur->flops += I.sub; break;
            case CountTag::Div: cur->divs += I.sub; break;
            case CountTag::Trans: cur->trans += I.sub; break;
            case CountTag::Mem: cur->mem += I.sub; break;
            case CountTag::None: case CountTag::ByResult: break;
          }
        }
        ++pc;
        break;
      case FOp::RPeek: {
        const std::int64_t off = typed_geti(dr, ir_, I.a, ad);
        if (debug && (off < 0 || pops + off >= window)) {
          peek_bounds_error(meta->name, off, pops, window);
        }
        if constexpr (kCount) ++cur->channel;
        dr[I.dst] = chans_[I.edge]->peek_item(static_cast<int>(off));
        ++pc;
        break;
      }
      case FOp::RPop:
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[I.dst] = chans_[I.edge]->pop_item();
        ++pc;
        break;
      case FOp::RPopN: {
        const std::int64_t n = typed_geti(dr, ir_, I.a, ad);
        if (n > 0) {
          if constexpr (kCount) cur->channel += n;
          pops += n;
          chans_[I.edge]->pop_many(static_cast<int>(n));
        }
        ++pc;
        break;
      }
      case FOp::RPush:
        if constexpr (kCount) ++cur->channel;
        chans_[I.edge]->push_item(typed_getd(dr, ir_, I.dst, dd));
        ++pc;
        break;
      case FOp::TPeek: {
        const std::int64_t off = typed_geti(dr, ir_, I.a, ad);
        if (debug && (off < 0 || pops + off >= window)) {
          peek_bounds_error(meta->name, off, pops, window);
        }
        EdgeState& s = ebuf[I.edge];
        if (off < 0 || s.rd + static_cast<std::size_t>(off) >= s.wr) {
          buffer_peek_error(off, s.wr - s.rd);
        }
        if constexpr (kCount) ++cur->channel;
        dr[I.dst] = s.buf[s.rd + static_cast<std::size_t>(off)];
        ++pc;
        break;
      }
      case FOp::TPop:
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[I.dst] = tpop(I.edge);
        ++pc;
        break;
      case FOp::TPopN: {
        const std::int64_t n = typed_geti(dr, ir_, I.a, ad);
        if (n > 0) {
          EdgeState& s = ebuf[I.edge];
          if (s.rd + static_cast<std::size_t>(n) > s.wr) {
            throw std::runtime_error("pop from empty channel");
          }
          if constexpr (kCount) cur->channel += n;
          pops += n;
          s.rd += static_cast<std::size_t>(n);
        }
        ++pc;
        break;
      }
      case FOp::TPush:
        if constexpr (kCount) ++cur->channel;
        tpush(I.edge, typed_getd(dr, ir_, I.dst, dd));
        ++pc;
        break;
      case FOp::SetActor:
        meta = &base.actors[I.a];
        window = meta->peek_window;
        if constexpr (kCount) cur = &actor_counts[I.a];
        ++pc;
        break;
      case FOp::ResetRegs:
        reset_regs(I.a);
        ++pc;
        break;
      case FOp::Repeat:
        if (++pass < base.reps[I.a]) {
          if (I.sub != 0) reset_regs(I.a);
          pc = I.jump;
        } else {
          pass = 0;
          ++pc;
        }
        break;
      case FOp::MacLoop: {
        const MacLoopArgs& M = base.macs[I.a];
        std::int64_t i = ir_[M.ri];
        const std::int64_t hi = ir_[M.rhi];
        const std::int64_t st = ir_[M.rstep];
        if (i < hi) {
          double acc = dr[M.acc];
          const std::vector<double>* arr =
              M.has_array ? &darrays_[M.arr] : nullptr;
          EdgeState* s = M.real ? nullptr : &ebuf[M.edge];
          Channel* const ch = M.real ? chans_[M.edge] : nullptr;
          // Hoisted precheck: when no per-element check can fire across the
          // whole range, run the raw kernel and count in bulk.
          const MacCheck chk{
              debug, pops, window, &meta->name,
              M.has_array ? &base.array_names[M.arr] : nullptr};
          const double* const coef = arr != nullptr ? arr->data() : nullptr;
          const std::int64_t i0 = i;
          std::int64_t last = 0;
          ir::TapeWindow w;
          const bool clear = mac_loop_clear(
              i, hi, st,
              arr != nullptr ? static_cast<std::int64_t>(arr->size()) : -1,
              chk, &last);
          if (clear && s != nullptr &&
              s->rd + static_cast<std::size_t>(last) < s->wr) {
            acc = mac_loop_raw(i, hi, st, acc, s->buf.data() + s->rd, coef);
          } else if (clear && ch != nullptr &&
                     ch->window(static_cast<int>(last) + 1, &w)) {
            acc = mac_loop_raw(i, hi, st, acc, w, coef);
          }
          if (i >= hi) {
            if constexpr (kCount) {
              mac_loop_count(cur, (hi - i0 + st - 1) / st, coef != nullptr);
            }
          } else {
            // Checked path: per-element checks and counts in exactly the
            // tree interpreter's order, so an error fires at the same element
            // with the same partial counts.
            const auto peek = [&](std::int64_t k) {
              if (s == nullptr) return ch->peek_item(static_cast<int>(k));
              if (k < 0 || s->rd + static_cast<std::size_t>(k) >= s->wr) {
                buffer_peek_error(k, s->wr - s->rd);
              }
              return s->buf[s->rd + static_cast<std::size_t>(k)];
            };
            acc = mac_loop_checked<kCount>(i, hi, st, acc, peek, arr, cur, chk);
          }
          dr[M.acc] = acc;
          // The loop-variable local holds its final iteration's value.
          ir_[M.slot] = i - st;
        }
        ir_[M.ri] = i;
        ++pc;
        break;
      }
      case FOp::PopComputePush: {
        const PcpArgs& P = base.pcps[I.a];
        const TypedPcp& tp = prog_->code.pcps[I.a];
        double vd;
        if (P.in_real) {
          vd = chans_[P.in_edge]->pop_item();
        } else {
          vd = tpop(P.in_edge);
        }
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[P.rpop] = vd;
        double outd = vd;
        switch (P.kind) {
          case PcpArgs::Kind::Plain:
            outd = vd;
            break;
          case PcpArgs::Kind::Bin:
            tally(tp.tag);
            typed_bin(static_cast<BinOp>(P.sub), dr, ir_, P.rres, P.a, P.b,
                      tp.mode);
            outd = tp.res_double ? dr[P.rres]
                                 : static_cast<double>(ir_[P.rres]);
            break;
          case PcpArgs::Kind::Un:
            tally(tp.tag);
            typed_un(static_cast<UnOp>(P.sub), dr, ir_, P.rres, P.a, tp.mode);
            outd = tp.res_double ? dr[P.rres]
                                 : static_cast<double>(ir_[P.rres]);
            break;
        }
        if constexpr (kCount) ++cur->channel;
        if (P.out_real) {
          chans_[P.out_edge]->push_item(outd);
        } else {
          tpush(P.out_edge, outd);
        }
        ++pc;
        break;
      }
      case FOp::CopyRun: {
        const CopyRunArgs& C = base.copies[I.a];
        if constexpr (kCount) {
          cur->channel += C.n * (1 + static_cast<std::int64_t>(C.dst.size()));
        }
        if (C.n > 0) {
          double last = 0.0;
          if (!C.src_real && C.dst.size() == 1 && C.dst_real[0] == 0) {
            EdgeState& si = ebuf[C.src];
            EdgeState& so = ebuf[C.dst[0]];
            const auto n = static_cast<std::size_t>(C.n);
            if (si.rd + n > si.wr) {
              throw std::runtime_error("pop from empty channel");
            }
            if (so.wr + n > so.buf.size()) {
              throw std::logic_error("fused trace buffer overflow");
            }
            std::memcpy(so.buf.data() + so.wr, si.buf.data() + si.rd,
                        n * sizeof(double));
            si.rd += n;
            so.wr += n;
            last = so.buf[so.wr - 1];
          } else {
            for (std::int64_t k = 0; k < C.n; ++k) {
              const double v =
                  C.src_real ? chans_[C.src]->pop_item() : tpop(C.src);
              for (std::size_t d = 0; d < C.dst.size(); ++d) {
                if (C.dst_real[d] != 0) {
                  chans_[C.dst[d]]->push_item(v);
                } else {
                  tpush(C.dst[d], v);
                }
              }
              last = v;
            }
          }
          dr[C.reg] = last;
        }
        ++pc;
        break;
      }
      case FOp::NativeFire: {
        const NativeFireArgs& N = base.nats[I.a];
        const FlatActor& a =
            base.graph->actors[static_cast<std::size_t>(N.actor)];
        EdgeState dummy;
        BufIn bin(N.in_edge >= 0 && !N.in_real ? ebuf[N.in_edge] : dummy);
        BufOut bout(N.out_edge >= 0 && !N.out_real ? ebuf[N.out_edge] : dummy);
        ir::InTape* in = &null_in;
        ir::OutTape* out = &null_out;
        if (N.in_edge >= 0) {
          in = N.in_real ? static_cast<ir::InTape*>(chans_[N.in_edge]) : &bin;
        }
        if (N.out_edge >= 0) {
          out = N.out_real ? static_cast<ir::OutTape*>(chans_[N.out_edge])
                           : &bout;
        }
        a.node->native.work(nstates_[static_cast<std::size_t>(N.actor)], *in,
                            *out);
        if constexpr (kCount) {
          cur->flops += N.flops;
          cur->int_ops += N.int_ops;
          cur->channel += N.channel;
        }
        ++pc;
        break;
      }
      case FOp::Halt:
        return;
      default:
        throw std::logic_error("typed fused dispatch: unexpected opcode");
    }
  }
}

}  // namespace sit::runtime
