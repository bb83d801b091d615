#pragma once
// Threaded runtime: execute a partitioned stream graph on real cores.
//
// The sequential Executor realizes the paper's operational semantics one
// firing at a time, and machine::simulate only *models* parallel speedup.
// ThreadedExecutor closes that gap: it places the flattened graph's actors
// onto N OS threads and runs a software-pipelined steady state per worker.
// It never fires an actor itself: it owns one sequential Executor (actor
// storage, compiled work functions, channels, counters, tracing) and its
// workers fire that executor's actors, so there is one firing path and one
// set of per-actor rows for both runtimes.
//
// Execution model:
//   * Initialization and the first steady state run sequentially as the
//     Executor's own epochs; the first steady state doubles as a calibration
//     run that measures each actor's cycle weight (runtime::OpCounts::
//     weighted -- the same cost table the machine model uses).
//   * Actors are then partitioned by longest-processing-time greedy
//     balancing over the measured weights, with an affinity pass that glues
//     featherweight actors (splitters, sinks, gains) to their heaviest
//     neighbor so trivial actors do not buy a ring crossing.
//   * Steady iterations are grouped into *batches* of B iterations (the
//     batch factor: ExecOptions::batch / SIT_BATCH, auto-sized by default
//     from per-edge traffic, measured cost, and the static max_batch).  One
//     pipeline step runs a whole batch: every worker executes its slice in
//     the *global* topological order, firing each actor reps * B times
//     consecutively.  With this single-appearance discipline, a firing's
//     inputs are produced either earlier in the same step (forward edges) or
//     by the previous step (back edges), so per-edge quota waits alone order
//     the computation -- no global barrier between steady states.  Batching
//     is what amortizes the cross-thread machinery: each ring handoff
//     publishes once per B*T items, and the window counters advance once per
//     B iterations.
//   * Cross-thread edges are migrated to lock-free SPSC rings in deferred
//     (bulk-publication) mode (runtime/spsc.h): the Executor's per-edge tape
//     table is repointed from the edge's Channel to its ring, so the same
//     firing code reads and writes rings without knowing it.  Intra-thread
//     edges keep the unsynchronized Channel.  A sliding step window
//     (kPipelineWindow) caps how far any worker runs ahead, which bounds
//     ring occupancy so each ring is sized once to the exact static bound
//     analysis::channel_bounds computes: post-init level +
//     (window + 1) * B * steady-state traffic.  Debug/observability builds
//     re-check every edge's observed high water against its static bound
//     after the workers join.
//   * High water: the sequential epochs note every channel after each
//     firing, exactly as the Executor always does.  A worker notes only the
//     fired actor's plain channels (which it owns); noting the others would
//     race with their owners.  Rings track their own high water.
//   * Deadlock freedom: induction over (step, topo position).  The earliest
//     unfinished firing's data waits point only at strictly smaller
//     (step, topo) pairs (back edges carry the previous step's items, and
//     analysis::ChannelBounds::max_batch caps B so every back edge's delay
//     covers a whole batch) and its space waits at consumers of strictly
//     smaller pairs, so some actor can always proceed.
//
// Engines: the workers fire per actor, so a requested Engine::Fused builds
// the Executor on the per-actor VM instead (its whole-program trace is inherently
// single-threaded and would only cost set-up time and memory).  A coarse
// segment is one actor, though, and under either compiled engine it runs its
// body as one typed fused trace of its own (parallel/segment.cc), so the
// segment-heavy apps still run fused inside each worker.
//
// Determinism: every actor's state, tally, and every channel's FIFO content
// have exactly one owner thread, so outputs, final filter state, and the
// cumulative push/pop counters are bit-equal to the sequential executor
// (tests/test_texec.cc holds this differentially).
//
// Out of scope -- these run the owned Executor sequentially as-is (see
// ThreadedReport::fallback_reason): thread counts <= 1, teleport messaging
// (handlers, Send statements, or an attached message_sink: delivery points
// are defined against the sequential schedule), and graphs whose steady
// state admits no single-appearance topological schedule (checked statically
// from the post-init channel counts; e.g. tight feedback loops whose delay
// cannot cover a whole iteration).

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bounds_chan.h"
#include "ir/graph.h"
#include "runtime/flatgraph.h"
#include "runtime/spsc.h"
#include "sched/exec.h"
#include "sched/schedule.h"

namespace sit::sched {

// Max pipeline steps (batches of `batch` steady iterations) any worker may
// run ahead of the slowest worker.  Bounds every ring's occupancy at exactly
// analysis::ChannelBounds::pipelined(e, kPipelineWindow, batch), which is
// how the executor sizes each ring; small values lose pipelining slack,
// large values cost memory.  Public so tools and tests can reproduce the
// ring bound.
inline constexpr int kPipelineWindow = 4;

// Why a ThreadedExecutor fell back to the embedded sequential Executor.
// The enum and its to_string names are a stable interface -- streamprof
// prints them and tests pin them; ThreadedReport::fallback_reason carries
// the human-readable detail (which filter, etc.).
enum class FallbackReason {
  None,                // running threaded
  OneThread,           // one worker requested (or SIT_THREADS unset)
  MessageSink,         // teleport message sink attached
  TeleportHandlers,    // some filter declares message handlers
  TeleportSends,       // some filter sends teleport messages
  TooFewActors,        // graph has fewer than two actors
  InterleavedFirings,  // no single-appearance steady schedule exists
};

// Stable kebab-case name: "none", "one-thread", "message-sink",
// "teleport-handlers", "teleport-sends", "too-few-actors",
// "interleaved-firings".
const char* to_string(FallbackReason r);

// How a ThreadedExecutor decided to run; owner/ring/speedup fields are
// populated once the partition is frozen (after the first steady state).
struct ThreadedReport {
  bool threaded{false};
  int threads{1};               // workers actually used
  FallbackReason fallback{FallbackReason::None};
  std::string fallback_reason;  // human-readable detail; empty when threaded
  std::vector<int> owner;       // actor index -> worker id
  int ring_edges{0};            // edges migrated to SPSC rings
  int batch{1};                 // steady iterations per pipeline step
  double predicted_speedup{0};  // machine-model estimate for this placement

  // One-line summary: "threaded threads=4 ring-edges=3 batch=8 speedup=2.71"
  // or "sequential fallback=teleport-handlers (filter 'F' has teleport
  // handlers)".
  [[nodiscard]] std::string to_string() const;
};

class ThreadedExecutor {
 public:
  // Graph-taking form (equivalent to ThreadedExecutor(lower(root), opts)).
  explicit ThreadedExecutor(ir::NodeP root, ExecOptions opts = {});

  // Artifact-taking form: consume a pipeline-compiled program -- no
  // re-analysis/flatten/schedule.  opts.engine / opts.threads of Auto / 0
  // fall back to the program's resolved choice before consulting the
  // environment.
  explicit ThreadedExecutor(CompiledProgram prog, ExecOptions opts = {});
  ~ThreadedExecutor();

  [[nodiscard]] const runtime::FlatGraph& graph() const {
    return exec_->graph();
  }
  [[nodiscard]] const Schedule& schedule() const { return exec_->schedule(); }

  // External input -- same contract as Executor.  Only callable between
  // run_* calls (no worker is running then).
  void feed_input(const std::vector<double>& items) {
    exec_->feed_input(items);
  }
  void set_input_generator(std::function<double(std::int64_t)> gen) {
    exec_->set_input_generator(std::move(gen));
  }

  void run_init() { exec_->run_init(); }
  // Run `n` steady states (init + calibration happen on first demand);
  // returns the items pushed to the program output.
  std::vector<double> run_steady(int n);
  std::vector<double> take_output() { return exec_->take_output(); }

  // The engine driving the actors (Fused already degraded to Vm when
  // running threaded).
  [[nodiscard]] Engine engine() const { return exec_->engine(); }
  [[nodiscard]] const std::vector<std::int64_t>& firings() const {
    return exec_->firings();
  }
  [[nodiscard]] const std::vector<runtime::OpCounts>& actor_ops() const {
    return exec_->actor_ops();
  }
  [[nodiscard]] runtime::OpCounts total_ops() const {
    return exec_->total_ops();
  }
  runtime::FilterState& filter_state(int actor) {
    return exec_->filter_state(actor);
  }
  // Cumulative per-edge counters -- n(t)/p(t), regardless of whether the
  // edge lives on a Channel or was migrated to a ring.
  [[nodiscard]] std::int64_t edge_pushed(int edge) const;
  [[nodiscard]] std::int64_t edge_popped(int edge) const;

  [[nodiscard]] const ThreadedReport& report() const { return report_; }

  // The static per-edge occupancy bounds the executor sized its storage
  // from (analysis::channel_bounds over the compiled schedule).  Rings are
  // sized to bounds().pipelined(e, kPipelineWindow, report().batch);
  // intra-worker channels never exceed
  // bounds().channel_bound(e, report().batch).  Empty-graph defaults when
  // the executor fell back before its eligibility checks (one thread or a
  // message sink).
  [[nodiscard]] const analysis::ChannelBounds& bounds() const {
    return bounds_;
  }

  // --- observability --------------------------------------------------------
  // Null unless tracing is enabled.
  [[nodiscard]] obs::Recorder* recorder() noexcept {
    return exec_->recorder();
  }
  // Quiescent snapshot (only call between run_* calls): the Executor's
  // snapshot with the threaded overlays -- calibration costs as per-actor
  // cycle weights, each actor's owning worker, ring counters and the
  // pipelined bounds per edge, the batch, and the worker table.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  void partition_and_migrate();
  // Resolve the batch factor for this placement: explicit requests clamp to
  // the static max_batch; auto sizes from cross-edge traffic, measured cost,
  // and a ring-memory cap.
  int resolve_partition_batch(const std::vector<double>& cost) const;
  void run_threaded(int iters);
  void worker(int w, std::int64_t first, std::int64_t last) noexcept;
  void wait_ready(int actor, std::int64_t chunk, obs::ThreadBuffer* tb,
                  std::int64_t* wait_ns);
  void stage_input(std::int64_t last_iter, std::int64_t chunk);
  std::int64_t min_completed() const;
  void check_bounds() const;  // throws if occupancy exceeded a static bound
  // Static bound on edge `e` under this placement (-1: none) and its
  // observed peak, from the ring or the Channel holding it.
  [[nodiscard]] std::int64_t edge_bound(std::size_t e) const;
  [[nodiscard]] std::int64_t edge_peak(std::size_t e) const;
  // The per-actor cost the partitioner balances: the calibration tallies.
  [[nodiscard]] const std::vector<runtime::OpCounts>& calibration() const;

  ThreadedReport report_;
  analysis::ChannelBounds bounds_;
  std::vector<std::unique_ptr<runtime::SpscRing>> rings_;  // null: Channel
  std::vector<runtime::OpCounts> calib_;  // weights when count_ops is off
  // Actor storage, firing, channels and tracing; sequential when fallen
  // back.  Declared after the rings and calib_ it points into, so it is
  // destroyed first.
  std::unique_ptr<Executor> exec_;

  // Stall detector (resolved from ExecOptions / SIT_STALL_MS at
  // construction; < 0 = never abort).
  int stall_ms_{120000};
  int spin_yield_{128};

  // Frozen after the calibration steady state.
  bool partitioned_{false};
  int threads_{1};
  int batch_{1};                 // steady iterations per pipeline step
  std::int64_t steps_run_{0};    // pipeline steps completed across run_* calls
  std::vector<int> owner_;                // actor -> worker
  std::vector<std::vector<int>> plan_;    // worker -> actors, global topo order
  int input_owner_{-1};

  struct alignas(64) PaddedCounter {
    std::atomic<std::int64_t> v{0};
  };
  std::vector<std::unique_ptr<PaddedCounter>> completed_;
  std::atomic<bool> abort_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;
};

}  // namespace sit::sched
