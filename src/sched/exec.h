#pragma once
// Graph executor.
//
// Drives a flattened stream program through its initialization epoch and any
// number of steady states, firing actors data-driven in topological sweeps
// (which realizes exactly the operational semantics of the paper: an actor
// may fire whenever >= peek items are buffered on its input).  The executor
// also:
//   * tallies per-actor operation counts (the work estimates used by the
//     partitioners and the machine model),
//   * exposes single-actor firing so the messaging module can drive a
//     *constrained* schedule,
//   * records cumulative push/pop counters per channel (n(t), p(t)).

#include <functional>
#include <memory>
#include <vector>

#include "ir/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/channel.h"
#include "runtime/flatgraph.h"
#include "runtime/fused.h"
#include "runtime/interp.h"
#include "runtime/typed.h"
#include "sched/program.h"
#include "sched/schedule.h"

namespace sit::sched {

// Engine lives in sched/program.h (the CompiledProgram artifact records the
// pipeline's choice); re-exported here for the executors' users.

// Resolve Auto against SIT_ENGINE (other values pass through).
Engine resolve_engine(Engine e);

// Resolve a requested worker-thread count: 0 means "consult SIT_THREADS",
// which itself defaults to 1 (sequential).  Values < 1 clamp to 1.  Only the
// ThreadedExecutor (sched/texec.h) acts on counts > 1; the plain Executor
// ignores the field.
int resolve_threads(int requested);

// Event tracing + timing metrics (src/obs).  Auto consults the SIT_TRACE
// environment variable ("1"/"on"/"true" enable) and defaults to Off; the
// explicit values let tests and tools pin the behavior regardless of the
// environment.
enum class TraceMode { Auto, Off, On };

// Resolve Auto against SIT_TRACE; always false when the instrumentation was
// compiled out (cmake -DSIT_OBS=OFF).
bool resolve_trace(TraceMode mode);

// Typed (unboxed dual-plane) value specialization, which is what the compiled
// engines execute: On and Auto both run each actor on the typed VM wherever
// the typeflow analysis (runtime/typed.h) proves it safe, with per-actor
// fallback to the tree interpreter where it refuses.  Off runs every actor
// on the tree interpreter under Engine::Vm and Engine::Fused alike (the
// fused trace only runs typed, so its steady states then go per-actor).
// Auto consults SIT_TYPED (default on).
enum class TypedMode { Auto, Off, On };

// Resolve Auto against SIT_TYPED (other values pass through).
bool resolve_typed(TypedMode mode);

// Resolve the threaded runtime's stall-abort threshold in milliseconds:
// 0 = consult SIT_STALL_MS, which itself defaults to 120000 (two minutes);
// negative = never abort (spin forever).
int resolve_stall_ms(int requested);

// Resolve a requested steady-iteration batch factor: 0 = consult SIT_BATCH
// (whose default is auto), -1 = auto, values >= 1 pass through.  Returns -1
// (auto) or a count >= 1.  Auto is resolved per program inside the
// ThreadedExecutor at partition time, where per-edge traffic, measured actor
// cost, and the static max_batch are known.
int resolve_batch(int requested);

struct ExecOptions {
  bool count_ops{true};
  Engine engine{Engine::Auto};
  // Worker threads for ThreadedExecutor: 0 = resolve from SIT_THREADS.
  int threads{0};
  // Steady iterations per pipeline step (ThreadedExecutor only): 0 = resolve
  // from SIT_BATCH, -1 = auto heuristic, >= 1 = explicit (clamped to the
  // static max_batch of the program).
  int batch{0};
  // Event tracing + per-firing timing (obs::Recorder).
  TraceMode trace{TraceMode::Auto};
  // Typed value-plane specialization (SIT_TYPED when Auto).
  TypedMode typed{TypedMode::Auto};
  // Threaded runtime stall detector: abort after this many ms without
  // progress in a spin wait (0 = SIT_STALL_MS / default, < 0 = never), and
  // busy-spin this many times before starting to yield.
  int stall_ms{0};
  int spin_before_yield{128};
  // Receives teleport messages emitted by Send statements; delivery policy is
  // the msg module's job (the plain executor only forwards).
  runtime::MessageSink message_sink;
};

class Executor {
 public:
  // Graph-taking form: validates, flattens, and schedules internally
  // (equivalent to Executor(lower(root), opts)).
  explicit Executor(ir::NodeP root, ExecOptions opts = {});

  // Artifact-taking form: consume a pipeline-compiled program as-is -- no
  // re-analysis, re-flattening, or re-scheduling.  The program's resolved
  // engine applies when opts.engine is Auto (and likewise threads), so the
  // same artifact can still be pinned to a specific engine per executor.
  explicit Executor(CompiledProgram prog, ExecOptions opts = {});

  [[nodiscard]] const runtime::FlatGraph& graph() const { return g_; }
  [[nodiscard]] const Schedule& schedule() const { return sched_; }

  // External input: either an explicit item feed or a generator the executor
  // pulls from on demand (index = item position in the input stream).
  void feed_input(const std::vector<double>& items);
  void set_input_generator(std::function<double(std::int64_t)> gen);

  // Initialization epoch: runs every filter's init function happened already
  // (at construction); this executes the init firings that buffer peek
  // windows and primes feedback loops.  Idempotent.
  void run_init();

  // Run `n` steady states (running init first if needed); returns the items
  // pushed to the program output during those steady states.
  std::vector<double> run_steady(int n);

  // --- fine-grained control (sdep / messaging) -----------------------------
  [[nodiscard]] bool can_fire(int actor) const;
  void fire(int actor);

  // Invoke a teleport-message handler on an AST filter actor.  Handlers run
  // through the tree interpreter against the actor's FilterState, so a
  // handler delivered between firings is visible to the next firing.
  // (Filters with handlers never run typed: typed_compile refuses them.)
  void run_handler(int actor, const std::string& method,
                   const std::vector<ir::Value>& args);

  // The engine actually driving this graph (Auto already resolved).
  [[nodiscard]] Engine engine() const { return engine_; }

  // Typed VM introspection.  typed_enabled() reports the resolved SIT_TYPED
  // decision; actor_uses_typed() whether a given actor's work runs on the
  // per-actor typed VM (otherwise it runs on the tree interpreter);
  // typed_refusal() the stable reason it does not ("" when it does, or when
  // the actor was never a candidate -- non-filter, Engine::Tree, or typed
  // mode off).
  [[nodiscard]] bool typed_enabled() const { return typed_on_; }
  [[nodiscard]] bool actor_uses_typed(int actor) const {
    return tbf_[static_cast<std::size_t>(actor)] != nullptr;
  }
  [[nodiscard]] const std::string& typed_refusal(int actor) const {
    return typed_refusal_[static_cast<std::size_t>(actor)];
  }
  // The specialized work program for one actor (null on the tree), and the
  // whole-trace typed fused program (Engine::Fused; null when the lowering
  // refused, with typed_fused_refusal() carrying the stable reason -- steady
  // states then run per-actor).
  [[nodiscard]] const runtime::TypedFilter* typed_program(int actor) const {
    const auto& p = tbf_[static_cast<std::size_t>(actor)];
    return p ? &p->program() : nullptr;
  }
  [[nodiscard]] const runtime::TypedFusedProgram* typed_fused_program() const {
    return tfprog_ ? tfprog_.get() : nullptr;
  }
  [[nodiscard]] const std::string& typed_fused_refusal() const {
    return typed_fused_refusal_;
  }

  // Fused engine introspection (Engine::Fused only).  fused_program() is the
  // whole-iteration trace run_steady executes through its typed lowering, or
  // null when fusion was refused -- in which case fused_refusal() carries the
  // stable reason (analysis/fuse.h) and steady states run per-actor
  // instead.
  [[nodiscard]] const runtime::FusedProgram* fused_program() const {
    return fprog_ ? fprog_.get() : nullptr;
  }
  [[nodiscard]] const std::string& fused_refusal() const {
    return fused_refusal_;
  }

  [[nodiscard]] const std::vector<std::int64_t>& firings() const { return fired_; }
  [[nodiscard]] runtime::Channel& channel(int edge_id) {
    return *chans_[static_cast<std::size_t>(edge_id)];
  }
  runtime::FilterState& filter_state(int actor) {
    return fstate_[static_cast<std::size_t>(actor)];
  }

  // Drain whatever is on the external output edge.
  std::vector<double> take_output();

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] const std::vector<runtime::OpCounts>& actor_ops() const {
    return ops_;
  }
  [[nodiscard]] runtime::OpCounts total_ops() const;

  // --- observability --------------------------------------------------------
  // Null unless tracing is enabled (ExecOptions::trace / SIT_TRACE).
  [[nodiscard]] obs::Recorder* recorder() noexcept { return rec_.get(); }
  [[nodiscard]] const obs::Recorder* recorder() const noexcept {
    return rec_.get();
  }
  // The single-threaded executor's own event log (null when not tracing);
  // MessagingExecutor appends teleport delivery events here.
  [[nodiscard]] obs::ThreadBuffer* trace_buffer() noexcept { return tb_; }
  // Quiescent metrics snapshot (actor/edge/timing tables; obs/metrics.h).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  // The threaded runtime (sched/texec.h) owns one Executor and fires its
  // actors from worker threads; it reaches the seam below directly.
  friend class ThreadedExecutor;

  // One firing, tallied into `counts` and traced into `tb` (either may be
  // null), without high-water bookkeeping: the public fire() adds that,
  // while threaded workers note only their own plain channels.
  void fire(int actor, runtime::OpCounts* counts, obs::ThreadBuffer* tb);
  void ensure_input_for(std::int64_t items_needed);
  void run_epoch(const std::vector<std::int64_t>& quota);
  // One data-driven steady state (input staged first).
  void steady_epoch();
  // Emit the Steady phase marker once, before the first steady state.
  void mark_steady();

  ir::NodeP root_;
  ExecOptions opts_;
  runtime::FlatGraph g_;
  Schedule sched_;
  Engine engine_{Engine::Vm};
  std::vector<std::unique_ptr<runtime::Channel>> chans_;
  // The tapes firings read and write, per edge: the Channels, except where
  // the threaded runtime repoints a cross-worker edge at its SPSC ring.
  std::vector<ir::InTape*> in_tapes_;
  std::vector<ir::OutTape*> out_tapes_;
  std::vector<runtime::FilterState> fstate_;
  std::vector<std::unique_ptr<ir::NativeState>> nstate_;
  // The per-actor typed VM (SIT_TYPED): dual-plane bindings to fstate_
  // storage, null where the actor is not an AST filter or runs on the tree
  // interpreter (fstate_ entries must therefore never be reseated), plus
  // the per-actor refusal reasons.
  bool typed_on_{false};
  std::vector<std::unique_ptr<runtime::TypedBound>> tbf_;
  std::vector<std::string> typed_refusal_;
  // Fused steady-state trace (Engine::Fused; null when fusion was refused)
  // and its typed lowering, which is what run_steady executes.  Without the
  // typed lowering the trace never runs: steady states go per-actor.
  runtime::FusedProgramP fprog_;
  std::string fused_refusal_;
  runtime::TypedFusedProgramP tfprog_;
  std::unique_ptr<runtime::TypedFusedExec> tfexec_;
  std::string typed_fused_refusal_;
  std::vector<runtime::OpCounts> ops_;
  // Tally for fire() when count_ops is off: null, except under the threaded
  // runtime, whose partitioner costs actors from the sequential epochs.
  std::vector<runtime::OpCounts>* calib_ops_{nullptr};
  std::vector<std::int64_t> fired_;
  std::function<double(std::int64_t)> input_gen_;
  std::int64_t input_fed_{0};
  // High-water bookkeeping for fire(): whether any firing noted the
  // channels yet, and whether items were fed since the input channel's
  // last note.
  bool noted_{false};
  bool input_unnoted_{false};
  std::int64_t steady_run_{0};
  bool init_done_{false};
  bool steady_marked_{false};
  // Tracing (null when disabled; tb_ is this executor's thread-0 buffer).
  std::unique_ptr<obs::Recorder> rec_;
  obs::ThreadBuffer* tb_{nullptr};
  // Compilation provenance (from the CompiledProgram; empty when built from
  // a raw graph), surfaced through metrics_snapshot().
  std::string pipeline_;
  std::vector<obs::PassSnapshot> passes_;
};

}  // namespace sit::sched
