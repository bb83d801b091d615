#include "sched/exec.h"

#include <stdexcept>
#include <utility>

#include "analysis/analyze.h"
#include "analysis/bounds_chan.h"
#include "analysis/fuse.h"
#include "analysis/typeflow.h"
#include "runtime/fire.h"
#include "sched/envopts.h"

namespace sit::sched {

using runtime::Channel;
using runtime::FlatActor;
using runtime::Interp;

// The env parsing lives in sched/envopts.cc (sit::resolve_exec_options);
// these merge a caller-requested value with the environment default.
Engine resolve_engine(Engine e) {
  return e != Engine::Auto ? e : env_engine();
}

int resolve_threads(int requested) {
  if (requested == 0) requested = env_threads();
  return requested < 1 ? 1 : requested;
}

bool resolve_trace(TraceMode mode) {
  if (!obs::kCompiledIn) return false;
  if (mode != TraceMode::Auto) return mode == TraceMode::On;
  return env_trace();
}

bool resolve_typed(TypedMode mode) {
  if (mode != TypedMode::Auto) return mode == TypedMode::On;
  return env_typed();
}

int resolve_stall_ms(int requested) {
  return requested != 0 ? requested : env_stall_ms();
}

int resolve_batch(int requested) {
  if (requested == 0) requested = env_batch();
  if (requested < 0) return -1;  // auto, resolved at partition time
  return requested < 1 ? 1 : requested;
}

CompiledProgram lower(ir::NodeP root) {
  // Full static-analysis gate: structural validation plus the dataflow and
  // graph-level passes.  Errors throw; warnings are tolerated.
  const analysis::AnalysisResult ar = analysis::analyze(root);
  if (!ar.ok()) {
    throw std::runtime_error("stream program rejected\n" + ar.report());
  }
  CompiledProgram p;
  p.source = root;
  p.graph = std::move(root);
  p.flat = runtime::flatten(p.graph);
  p.schedule = make_schedule(p.flat);
  return p;
}

Executor::Executor(ir::NodeP root, ExecOptions opts)
    : Executor(lower(std::move(root)), std::move(opts)) {}

Executor::Executor(CompiledProgram prog, ExecOptions opts)
    : root_(prog.graph),
      opts_(std::move(opts)),
      g_(std::move(prog.flat)),
      sched_(std::move(prog.schedule)),
      pipeline_(std::move(prog.pipeline)),
      passes_(std::move(prog.passes)) {
  chans_.reserve(g_.edges.size());
  for (const auto& e : g_.edges) {
    auto ch = std::make_unique<Channel>();
    ch->push_many(e.initial_items);
    in_tapes_.push_back(ch.get());
    out_tapes_.push_back(ch.get());
    chans_.push_back(std::move(ch));
  }

  engine_ = resolve_engine(opts_.engine != Engine::Auto ? opts_.engine
                                                        : prog.engine);
  if (resolve_trace(opts_.trace)) {
    rec_ = std::make_unique<obs::Recorder>();
    rec_->attach_actors(g_.actors.size());
    tb_ = rec_->thread_buffer(0);
  }

  typed_on_ = resolve_typed(opts_.typed);
  // What a fused segment's body runs on follows this executor, never the
  // environment.
  const ir::NativeEngine native_engine =
      typed_on_ && engine_ != Engine::Tree ? ir::NativeEngine::Compiled
                                           : ir::NativeEngine::Tree;
  const std::size_t n = g_.actors.size();
  fstate_.resize(n);
  nstate_.resize(n);
  tbf_.resize(n);
  typed_refusal_.resize(n);
  ops_.resize(n);
  fired_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const FlatActor& a = g_.actors[i];
    if (a.kind == FlatActor::Kind::Filter) {
      const ir::FilterSpec& spec = a.node->filter;
      fstate_[i] = Interp::init_state(spec);
      // The per-actor typed VM: one-time lowering to bytecode, specialized
      // against the post-init state tags.  A refusal records its stable
      // reason and the actor runs on the tree interpreter.
      if (typed_on_ && engine_ != Engine::Tree) {
        if (auto tp = runtime::typed_compile(spec, fstate_[i],
                                             &typed_refusal_[i])) {
          tbf_[i] = std::make_unique<runtime::TypedBound>(std::move(tp),
                                                          fstate_[i]);
          typed_refusal_[i].clear();
        }
      }
    } else if (a.kind == FlatActor::Kind::Native) {
      if (a.node->native.make_state) {
        nstate_[i] = a.node->native.make_state(native_engine);
      }
    }
  }

  // Engine::Fused: compile the whole-iteration trace and its typed lowering,
  // or record why not.  Refusal of either is whole-program: steady states
  // then run per-actor on the bindings built above (the Vm path and the
  // Fused fallback are identical).
  if (engine_ == Engine::Fused) {
    if (opts_.message_sink) {
      // Teleport delivery wants per-firing granularity (and the static plan
      // only proves the *absence* of sends per filter, not per sink).
      fused_refusal_ = "message-sink-attached";
    } else if (tb_ != nullptr) {
      fused_refusal_ = "tracing-enabled";
    } else {
      fprog_ = analysis::fuse_steady(g_, sched_, &fused_refusal_);
      if (fprog_) {
        fused_refusal_.clear();
        if (typed_on_) {
          tfprog_ = runtime::build_typed_fused(fprog_, fstate_,
                                               &typed_fused_refusal_);
          if (tfprog_) {
            tfexec_ = std::make_unique<runtime::TypedFusedExec>(
                tfprog_, fstate_, chans_, nstate_);
            typed_fused_refusal_.clear();
          }
        } else {
          typed_fused_refusal_ = "typed-off";
        }
      }
    }
  }
}

void Executor::feed_input(const std::vector<double>& items) {
  if (g_.input_edge < 0) {
    throw std::runtime_error("program has no external input");
  }
  chans_[static_cast<std::size_t>(g_.input_edge)]->push_many(items);
  input_fed_ += static_cast<std::int64_t>(items.size());
  input_unnoted_ = true;
}

void Executor::set_input_generator(std::function<double(std::int64_t)> gen) {
  input_gen_ = std::move(gen);
}

void Executor::ensure_input_for(std::int64_t items_needed) {
  if (g_.input_edge < 0 || !input_gen_) return;
  while (input_fed_ < items_needed) {
    chans_[static_cast<std::size_t>(g_.input_edge)]->push_item(input_gen_(input_fed_));
    ++input_fed_;
    input_unnoted_ = true;
  }
}

bool Executor::can_fire(int actor) const {
  const FlatActor& a = g_.actors[static_cast<std::size_t>(actor)];
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    const int eid = a.in_edges[p];
    if (eid < 0) continue;
    std::int64_t want = a.in_rate[p];
    if (a.is_filter()) want += a.peek_extra;
    if (static_cast<std::int64_t>(chans_[static_cast<std::size_t>(eid)]->size()) <
        want) {
      return false;
    }
  }
  return true;
}

void Executor::fire(int actor) {
  const auto ai = static_cast<std::size_t>(actor);
  runtime::OpCounts* counts = nullptr;
  if (opts_.count_ops) {
    counts = &ops_[ai];
  } else if (calib_ops_ != nullptr) {
    counts = &(*calib_ops_)[ai];
  }
  fire(actor, counts, tb_);
  // High water after every firing.  The first firing notes every channel
  // (initial items sit on back edges); after that only the fired actor's
  // channels and the input (fed outside any firing) can have moved since
  // the last note, so noting those gives the marks noting every channel
  // would.
  if (!noted_) {
    for (const auto& ch : chans_) ch->note_high_water();
    noted_ = true;
    input_unnoted_ = false;
    return;
  }
  const FlatActor& a = g_.actors[ai];
  for (const int eid : a.in_edges) {
    if (eid >= 0) chans_[static_cast<std::size_t>(eid)]->note_high_water();
  }
  for (const int eid : a.out_edges) {
    if (eid >= 0) chans_[static_cast<std::size_t>(eid)]->note_high_water();
  }
  if (input_unnoted_) {
    chans_[static_cast<std::size_t>(g_.input_edge)]->note_high_water();
    input_unnoted_ = false;
  }
}

void Executor::fire(int actor, runtime::OpCounts* counts,
                    obs::ThreadBuffer* tb) {
  const auto ai = static_cast<std::size_t>(actor);
  const FlatActor& a = g_.actors[ai];

  // Tracing: one branch when disabled; two clock reads plus a handful of
  // buffer appends per firing when enabled.  Typed-VM filters report their
  // channel batches from inside the dispatch loop (measured); everything
  // else reports the static SDF rates below.
  std::int64_t t0 = 0;
  bool vm_traced = false;
  const runtime::MessageSink* sink =
      opts_.message_sink ? &opts_.message_sink : nullptr;
  if (tb != nullptr) {
    t0 = rec_->now_ns();
    tb->emit(t0, obs::EventKind::FireBegin, actor);
    const obs::FiringTrace tr{tb, rec_.get(),
                              a.in_edges.empty() ? -1 : a.in_edges[0],
                              a.out_edges.empty() ? -1 : a.out_edges[0]};
    vm_traced = runtime::fire_actor(a, fstate_[ai], nstate_[ai].get(),
                                    tbf_[ai].get(), in_tapes_.data(),
                                    out_tapes_.data(), counts, sink, &tr);
  } else {
    runtime::fire_actor(a, fstate_[ai], nstate_[ai].get(), tbf_[ai].get(),
                        in_tapes_.data(), out_tapes_.data(), counts, sink);
  }
  ++fired_[ai];

  if (tb != nullptr) {
    const std::int64_t t1 = rec_->now_ns();
    if (!vm_traced) {
      for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
        if (a.in_edges[p] >= 0 && a.in_rate[p] > 0) {
          tb->emit(t1, obs::EventKind::PopBatch, a.in_edges[p], a.in_rate[p]);
        }
      }
      for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
        if (a.out_edges[p] >= 0 && a.out_rate[p] > 0) {
          tb->emit(t1, obs::EventKind::PushBatch, a.out_edges[p], a.out_rate[p]);
        }
      }
    }
    tb->emit(t1, obs::EventKind::FireEnd, actor);
    rec_->actor_stats(actor).record(t1 - t0);
  }
}

void Executor::run_handler(int actor, const std::string& method,
                           const std::vector<ir::Value>& args) {
  const auto ai = static_cast<std::size_t>(actor);
  const FlatActor& a = g_.actors[ai];
  if (a.kind != FlatActor::Kind::Filter) {
    throw std::invalid_argument("handler target '" + a.name +
                                "' is not an AST filter");
  }
  Interp::run_handler(a.node->filter, fstate_[ai], method, args);
}

void Executor::run_epoch(const std::vector<std::int64_t>& quota_in) {
  std::vector<std::int64_t> quota = quota_in;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int actor : sched_.order) {
      const auto ai = static_cast<std::size_t>(actor);
      while (quota[ai] > 0 && can_fire(actor)) {
        fire(actor);
        --quota[ai];
        progress = true;
      }
    }
  }
  for (std::size_t i = 0; i < quota.size(); ++i) {
    if (quota[i] > 0) {
      throw std::runtime_error("runtime deadlock: actor '" + g_.actors[i].name +
                               "' starved with " + std::to_string(quota[i]) +
                               " firings remaining");
    }
  }
}

void Executor::run_init() {
  if (init_done_) return;
  if (tb_ != nullptr) {
    tb_->emit(rec_->now_ns(), obs::EventKind::Phase,
              static_cast<std::int32_t>(obs::PhaseId::Init));
  }
  ensure_input_for(sched_.input_for_init);
  run_epoch(sched_.init_fires);
  init_done_ = true;
}

void Executor::mark_steady() {
  if (tb_ == nullptr || steady_marked_) return;
  tb_->emit(rec_->now_ns(), obs::EventKind::Phase,
            static_cast<std::int32_t>(obs::PhaseId::Steady));
  steady_marked_ = true;
}

void Executor::steady_epoch() {
  ++steady_run_;
  ensure_input_for(sched_.input_for_init +
                   steady_run_ * sched_.input_per_steady);
  run_epoch(sched_.reps);
}

std::vector<double> Executor::run_steady(int n) {
  run_init();
  if (n > 0) mark_steady();
  // Fused fast path: one flat dual-plane trace per steady state.  activate()
  // lowers the internal channels to trace buffers for the whole batch of
  // iterations; it refuses when manual fire() calls left the graph
  // mid-iteration or a state tag drifted from its inferred class, in which
  // case this batch runs per-actor (the graph re-synchronizes at the next
  // iteration boundary, so a later call may fuse again).
  if (tfexec_ && n > 0 && tfexec_->activate()) {
    runtime::OpCounts* counts = opts_.count_ops ? ops_.data() : nullptr;
    for (int i = 0; i < n; ++i) {
      ++steady_run_;
      ensure_input_for(sched_.input_for_init +
                       steady_run_ * sched_.input_per_steady);
      tfexec_->run_iteration(counts);
    }
    tfexec_->deactivate();
    for (std::size_t a = 0; a < fired_.size(); ++a) {
      fired_[a] += n * sched_.reps[a];
    }
    return take_output();
  }
  for (int i = 0; i < n; ++i) steady_epoch();
  return take_output();
}

std::vector<double> Executor::take_output() {
  std::vector<double> out;
  if (g_.output_edge < 0) return out;
  Channel& ch = *chans_[static_cast<std::size_t>(g_.output_edge)];
  out.reserve(ch.size());
  while (!ch.empty()) out.push_back(ch.pop_item());
  return out;
}

runtime::OpCounts Executor::total_ops() const {
  runtime::OpCounts t;
  for (const auto& o : ops_) t += o;
  return t;
}

obs::MetricsSnapshot Executor::metrics_snapshot() const {
  obs::MetricsSnapshot m;
  m.engine = engine_ == Engine::Vm     ? "vm"
             : engine_ == Engine::Fused ? "fused"
                                        : "tree";
  m.threads = 1;
  m.threaded = false;
  m.fallback = "none";
  // The trace runs only through its typed lowering; report why it did not.
  if (engine_ == Engine::Fused && !tfprog_) {
    m.fallback = "fused-refused";
    m.fallback_detail = fprog_ ? typed_fused_refusal_ : fused_refusal_;
  }
  if (tfprog_) {
    m.fused_channels = fprog_->eliminated_channels;
    m.fused_trace_instrs = static_cast<std::int64_t>(fprog_->code.size());
    m.fused_super.assign(fprog_->super.begin(), fprog_->super.end());
  }
  if (typed_on_) {
    m.typed_actors = 0;
    m.typed_regs = 0;
    for (const auto& tb : tbf_) {
      if (tb) {
        ++m.typed_actors;
        m.typed_regs += tb->program().work.typed_regs;
      }
    }
  }
  m.pipeline = pipeline_;
  m.passes = passes_;

  m.actors.reserve(g_.actors.size());
  for (std::size_t i = 0; i < g_.actors.size(); ++i) {
    obs::ActorSnapshot a;
    a.name = g_.actors[i].name;
    a.firings = fired_[i];
    a.ops = ops_[i];
    a.calib_cycles = ops_[i].weighted();
    a.worker = 0;
    if (rec_ && i < rec_->all_actor_stats().size()) {
      const obs::FiringStats& fs = rec_->all_actor_stats()[i];
      a.wall_ns = fs.wall_ns;
      a.max_ns = fs.max_ns;
      a.hist.assign(fs.hist.begin(), fs.hist.end());
      // With op counting off this executor has no calibration epoch (only
      // the threaded runtime runs one), which used to leave calib_cycles at
      // zero and made sequential profiles useless for calibration.  Measured
      // wall time is the better cost anyway: surface it (ns-as-cycles) so
      // the partitioners' cost column and streamprof --calibrate both work
      // under the sequential engines.
      if (a.calib_cycles <= 0 && fs.wall_ns > 0) {
        a.calib_cycles = static_cast<double>(fs.wall_ns);
      }
    }
    if (tbf_[i]) {
      a.typed_status = "typed";
      a.typed_regs = tbf_[i]->program().work.typed_regs;
    } else if (typed_on_ && !typed_refusal_[i].empty()) {
      a.typed_status = typed_refusal_[i];
    }
    if (nstate_[i]) a.segment = nstate_[i]->status();
    m.actors.push_back(std::move(a));
  }

  // Static occupancy bounds for the in-order (data-driven) discipline this
  // executor runs; cheap enough to recompute on each (quiescent) snapshot.
  analysis::ChannelBounds bounds;
  try {
    bounds = analysis::channel_bounds(g_, sched_);
  } catch (const std::exception&) {
  }
  m.edges.reserve(g_.edges.size());
  for (std::size_t e = 0; e < g_.edges.size(); ++e) {
    const auto& ed = g_.edges[e];
    obs::EdgeSnapshot s;
    s.src = ed.src;
    s.dst = ed.dst;
    s.name = (ed.src >= 0 ? g_.actors[static_cast<std::size_t>(ed.src)].name
                          : std::string("input")) +
             "->" +
             (ed.dst >= 0 ? g_.actors[static_cast<std::size_t>(ed.dst)].name
                          : std::string("output"));
    s.pushed = chans_[e]->total_pushed();
    s.popped = chans_[e]->total_popped();
    s.peak_items = static_cast<std::int64_t>(chans_[e]->high_water());
    if (e < bounds.in_order.size()) s.bound_items = bounds.in_order[e];
    m.edges.push_back(std::move(s));
  }

  // Channel content tags from the executor's own specialization results:
  // typed actors contribute their inferred push tag, everything else Double.
  if (typed_on_) {
    std::vector<runtime::Tag> push(g_.actors.size(), runtime::Tag::Double);
    for (std::size_t i = 0; i < g_.actors.size(); ++i) {
      if (tbf_[i]) push[i] = tbf_[i]->program().work.push_tag;
    }
    const auto content = analysis::propagate_edge_tags(g_, push);
    m.typed_channels = 0;
    for (std::size_t e = 0; e < content.size(); ++e) {
      m.edges[e].content =
          content[e] == runtime::Tag::Double ? "double" : "int";
      if (content[e] == runtime::Tag::Double) ++m.typed_channels;
    }
  }

  if (rec_) {
    m.trace_events = rec_->total_events();
    m.trace_dropped = rec_->total_dropped();
  }
  obs::annotate_cost_model(&m);
  return m;
}

}  // namespace sit::sched
