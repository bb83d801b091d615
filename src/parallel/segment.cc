// Fused segments (fuse_subtree, transforms.h): one native actor that runs a
// whole stream subtree.
//
// A segment is built once per fuse_subtree call and shared by every clone
// and fission replica of its native node; each executor that instantiates
// the node gets one FusedState.  The segment keeps the subtree as a flat
// body: a segment it absorbs is inlined as that segment's own body, so a
// body never contains a segment and no executor ever nests inside another.
//
// What a segment runs follows its owning executor (ir::NativeEngine, handed
// to make_state), never the environment:
//   * Compiled (the typed engines): the body's typed fused steady-state
//     trace, built once per segment.  Each FusedState keeps one
//     TypedFusedExec active for its whole lifetime, so a firing is: copy the
//     input items tape to tape into the trace's boundary input channel, run
//     one iteration (uncounted: a native's counts are static), move the Q
//     outputs to the outer tape.  When fusion or typing refuses, the body
//     runs per actor on the typed VM instead (per-actor programs, too, are
//     built once per segment), and the refusal reason shows in metrics.
//   * Tree: the body runs per actor on the tree interpreter.
// Per-actor execution replays firing sequences fixed once per segment (the
// data-driven order of the init epoch and of one steady epoch), so no
// firing searches for a fireable actor.  The first firing also runs the
// body's init epoch, per actor on the tree (it runs once).

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/fuse.h"
#include "linear/cost.h"
#include "parallel/transforms.h"
#include "runtime/channel.h"
#include "runtime/fire.h"
#include "runtime/flatgraph.h"
#include "runtime/interp.h"
#include "runtime/typed.h"
#include "sched/schedule.h"

namespace sit::parallel {

using ir::Node;
using ir::NodeP;
using runtime::FlatActor;

namespace {

// The data-driven firing order of one epoch with per-actor quotas, from item
// counts alone: the sweep Executor::run_epoch makes, starting at `level`
// items per edge (updated in place).  Extra input beyond `level` only
// enables firings earlier, so the sequence stays valid for it.
std::vector<int> epoch_sequence(const runtime::FlatGraph& g,
                                const sched::Schedule& s,
                                std::vector<std::int64_t> quota,
                                std::vector<std::int64_t>& level) {
  const auto can_fire = [&](const FlatActor& a) {
    for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
      const int eid = a.in_edges[p];
      if (eid < 0) continue;
      std::int64_t want = a.in_rate[p];
      if (a.is_filter()) want += a.peek_extra;
      if (level[static_cast<std::size_t>(eid)] < want) return false;
    }
    return true;
  };
  std::vector<int> seq;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int actor : s.order) {
      const auto ai = static_cast<std::size_t>(actor);
      const FlatActor& a = g.actors[ai];
      while (quota[ai] > 0 && can_fire(a)) {
        for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
          if (a.in_edges[p] >= 0) {
            level[static_cast<std::size_t>(a.in_edges[p])] -= a.in_rate[p];
          }
        }
        for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
          if (a.out_edges[p] >= 0) {
            level[static_cast<std::size_t>(a.out_edges[p])] += a.out_rate[p];
          }
        }
        seq.push_back(actor);
        --quota[ai];
        progress = true;
      }
    }
  }
  for (std::size_t i = 0; i < quota.size(); ++i) {
    if (quota[i] > 0) {
      throw std::runtime_error("runtime deadlock: actor '" + g.actors[i].name +
                               "' starved with " + std::to_string(quota[i]) +
                               " firings remaining");
    }
  }
  return seq;
}

// Replace every segment leaf under `n` (a fresh clone) by that segment's
// body.  Bodies are already segment-free, so one level suffices.
void inline_segments(NodeP& n) {
  if (n->kind == Node::Kind::Native && n->native.body) {
    n = n->native.body;
    return;
  }
  for (auto& c : n->children) inline_segments(c);
}

// One segment, shared by every instance of its native node.  Everything is
// built on first demand, once, under call_once: a segment absorbed by a
// larger one is never instantiated and never pays for a program.
class Segment {
 public:
  // The body lowered for execution, its post-init-function actor states,
  // and its per-actor firing sequences.
  struct Program {
    NodeP graph;  // owns the nodes `flat` points into
    runtime::FlatGraph flat;
    sched::Schedule schedule;
    std::vector<runtime::FilterState> states;
    std::vector<int> init_seq, steady_seq;
  };

  // The typed fused trace, or the stable reason there is none.
  struct Trace {
    runtime::TypedFusedProgramP typed;
    std::string refusal;
  };

  Segment(NodeP body, int pop, int init, int push)
      : pop_(pop), init_(init), push_(push) {
    program_.graph = std::move(body);
  }

  [[nodiscard]] int pop() const { return pop_; }
  [[nodiscard]] int init() const { return init_; }
  [[nodiscard]] int push() const { return push_; }

  const Program& program() {
    std::call_once(program_once_, [this] { build_program(); });
    return program_;
  }

  const Trace& trace() {
    std::call_once(trace_once_, [this] {
      const Program& p = program();
      const runtime::FusedProgramP fused =
          analysis::fuse_steady(p.flat, p.schedule, &trace_.refusal);
      if (fused) {
        trace_.typed =
            runtime::build_typed_fused(fused, p.states, &trace_.refusal);
      }
      if (trace_.typed) trace_.refusal.clear();
    });
    return trace_;
  }

  // Per-actor typed VM programs (null where the actor is not an AST filter
  // or typed_compile refuses it; that actor runs on the tree).
  const std::vector<runtime::TypedFilterP>& actor_programs() {
    std::call_once(actors_once_, [this] {
      const Program& p = program();
      actor_programs_.resize(p.flat.actors.size());
      for (std::size_t i = 0; i < p.flat.actors.size(); ++i) {
        const FlatActor& a = p.flat.actors[i];
        if (a.kind == FlatActor::Kind::Filter) {
          actor_programs_[i] = runtime::typed_compile(a.node->filter, p.states[i]);
        }
      }
    });
    return actor_programs_;
  }

 private:
  void build_program() {
    Program& p = program_;
    p.flat = runtime::flatten(p.graph);
    p.schedule = sched::make_schedule(p.flat);
    const sched::Schedule& s = p.schedule;
    // The body runs behind the rates fuse_subtree declared from the subtree
    // as given, where an absorbed segment still fires in whole iterations.
    // The body's own init demand can only be smaller; the surplus simply
    // stays buffered on its input channel.
    if (s.input_per_steady != pop_ || s.output_per_steady != push_ ||
        s.input_for_init > init_) {
      throw std::logic_error("fused segment body disagrees with its rates");
    }
    p.states.resize(p.flat.actors.size());
    for (std::size_t i = 0; i < p.flat.actors.size(); ++i) {
      if (p.flat.actors[i].kind == FlatActor::Kind::Filter) {
        p.states[i] = runtime::Interp::init_state(p.flat.actors[i].node->filter);
      }
    }
    std::vector<std::int64_t> level(p.flat.edges.size());
    for (std::size_t e = 0; e < level.size(); ++e) {
      level[e] = static_cast<std::int64_t>(p.flat.edges[e].initial_items.size());
    }
    if (p.flat.input_edge >= 0) {
      level[static_cast<std::size_t>(p.flat.input_edge)] += s.input_for_init;
    }
    p.init_seq = epoch_sequence(p.flat, s, s.init_fires, level);
    // Every steady epoch starts from the post-init levels, so one sequence
    // serves them all.
    if (p.flat.input_edge >= 0) {
      level[static_cast<std::size_t>(p.flat.input_edge)] += s.input_per_steady;
    }
    p.steady_seq = epoch_sequence(p.flat, s, s.reps, level);
  }

  int pop_, init_, push_;
  std::once_flag program_once_, trace_once_, actors_once_;
  Program program_;
  Trace trace_;
  std::vector<runtime::TypedFilterP> actor_programs_;
};

using SegmentP = std::shared_ptr<Segment>;

// Per-instance state of a fused segment: the body's actor storage and
// channels, and either an active typed fused trace or per-actor bindings.
class FusedState final : public ir::NativeState {
 public:
  FusedState(SegmentP seg, ir::NativeEngine engine)
      : seg_(std::move(seg)), engine_(engine), prog_(&seg_->program()) {
    const runtime::FlatGraph& g = prog_->flat;
    const std::size_t n = g.actors.size();
    fstate_ = prog_->states;
    nstate_.resize(n);
    typed_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const FlatActor& a = g.actors[i];
      if (a.kind == FlatActor::Kind::Native && a.node->native.make_state) {
        nstate_[i] = a.node->native.make_state(engine_);
      }
    }
    for (const auto& e : g.edges) {
      auto ch = std::make_unique<runtime::Channel>();
      ch->push_many(e.initial_items);
      in_tapes_.push_back(ch.get());
      out_tapes_.push_back(ch.get());
      chans_.push_back(std::move(ch));
    }
    if (engine_ == ir::NativeEngine::Tree) {
      status_ = "tree";
      return;
    }
    const Segment::Trace& t = seg_->trace();
    if (t.typed) {
      trace_ = std::make_unique<runtime::TypedFusedExec>(t.typed, fstate_,
                                                         chans_, nstate_);
      status_ = "fused";
    } else {
      run_per_actor("typed-vm:" + t.refusal);
    }
  }

  std::unique_ptr<ir::NativeState> clone() const override {
    return std::make_unique<FusedState>(seg_, engine_);
  }

  [[nodiscard]] std::string status() const override { return status_; }

  // One firing: the first takes I + P input items (and runs the body's init
  // epoch), later ones P; each produces exactly Q.
  void fire(ir::InTape& in, ir::OutTape& out) {
    const runtime::FlatGraph& g = prog_->flat;
    const int P = seg_->pop();
    const int I = seg_->init();
    const int Q = seg_->push();
    const int first = started_ ? I : 0;
    const int count = started_ ? P : I + P;
    if (count > 0) {
      runtime::Channel& feed = *chans_[static_cast<std::size_t>(g.input_edge)];
      feed.reserve_items(static_cast<std::size_t>(count));
      ir::TapeWindow w;
      if (in.window(first + count, &w)) {
        for (int k = 0; k < count; ++k) {
          feed.push_item(w[static_cast<std::size_t>(first + k)]);
        }
      } else {
        for (int k = 0; k < count; ++k) feed.push_item(in.peek_item(first + k));
      }
    }
    if (!started_) {
      replay(prog_->init_seq, /*tree=*/true);
      if (trace_ && !trace_->activate()) {
        trace_.reset();
        run_per_actor("typed-vm:activate-refused");
      }
      started_ = true;
    }
    if (trace_) {
      trace_->run_iteration(nullptr);
    } else {
      replay(prog_->steady_seq, /*tree=*/false);
    }
    if (Q > 0) {
      runtime::Channel& drain =
          *chans_[static_cast<std::size_t>(g.output_edge)];
      ir::TapeWindow w;
      if (drain.size() != static_cast<std::size_t>(Q) || !drain.window(Q, &w)) {
        throw std::runtime_error("fused filter produced unexpected item count");
      }
      for (int k = 0; k < Q; ++k) out.push_item(w[static_cast<std::size_t>(k)]);
      drain.pop_many(Q);
    }
    in.pop_many(P);
  }

 private:
  // Per-actor from here on: on the typed VM where the compiled engines are
  // wanted (tree for actors typed_compile refuses), with `status` saying why.
  void run_per_actor(std::string status) {
    status_ = std::move(status);
    const auto& progs = seg_->actor_programs();
    for (std::size_t i = 0; i < progs.size(); ++i) {
      if (progs[i]) {
        typed_[i] = std::make_unique<runtime::TypedBound>(progs[i], fstate_[i]);
      }
    }
  }

  void replay(const std::vector<int>& seq, bool tree) {
    const runtime::FlatGraph& g = prog_->flat;
    for (const int actor : seq) {
      const auto ai = static_cast<std::size_t>(actor);
      runtime::fire_actor(g.actors[ai], fstate_[ai], nstate_[ai].get(),
                          tree ? nullptr : typed_[ai].get(), in_tapes_.data(),
                          out_tapes_.data(), nullptr);
    }
  }

  SegmentP seg_;
  ir::NativeEngine engine_;
  const Segment::Program* prog_;
  std::vector<runtime::FilterState> fstate_;
  std::vector<std::unique_ptr<ir::NativeState>> nstate_;
  std::vector<std::unique_ptr<runtime::Channel>> chans_;
  std::vector<ir::InTape*> in_tapes_;
  std::vector<ir::OutTape*> out_tapes_;
  std::vector<std::unique_ptr<runtime::TypedBound>> typed_;
  std::unique_ptr<runtime::TypedFusedExec> trace_;
  std::string status_;
  bool started_{false};
};

}  // namespace

NodeP fuse_subtree(const NodeP& node, const std::string& name) {
  // Rates and cost come from the subtree as given, an absorbed segment
  // counting as the native it is, so fusing a segment again declares what
  // fusing it whole always declared.  Only what runs is flat.
  const runtime::FlatGraph g = runtime::flatten(node);
  const sched::Schedule s = sched::make_schedule(g);
  const int P = static_cast<int>(s.input_per_steady);
  const int I = static_cast<int>(s.input_for_init);
  const int Q = static_cast<int>(s.output_per_steady);

  double ops = 0.0, flops = 0.0;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    const auto& a = g.actors[i];
    const double reps = static_cast<double>(s.reps[i]);
    if (a.is_filter()) {
      ops += reps * linear::leaf_ops_per_firing(*a.node);
      flops += reps * linear::leaf_flops_per_firing(*a.node);
    } else {
      std::int64_t items = 0;
      for (int r : a.in_rate) items += r;
      for (int r : a.out_rate) items += r;
      ops += reps * static_cast<double>(items);
    }
  }

  NodeP body = ir::clone(node);
  inline_segments(body);
  const auto seg = std::make_shared<Segment>(body, P, I, Q);

  ir::NativeFilter nf;
  nf.name = name;
  nf.pop = P;
  nf.peek = P + I;
  nf.push = Q;
  nf.cost_ops = ops;
  nf.cost_flops = flops;
  nf.stateful = subtree_stateful(node) || subtree_peeks(node) || I > 0;
  nf.body = std::move(body);
  nf.make_state = [seg](ir::NativeEngine engine) -> std::unique_ptr<ir::NativeState> {
    return std::make_unique<FusedState>(seg, engine);
  };
  nf.work = [](ir::NativeState* state, ir::InTape& in, ir::OutTape& out) {
    auto* fs = dynamic_cast<FusedState*>(state);
    if (fs == nullptr) throw std::logic_error("fused filter state mismatch");
    fs->fire(in, out);
  };
  return ir::make_native(std::move(nf));
}

}  // namespace sit::parallel
