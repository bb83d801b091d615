#include "sched/texec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "machine/machine.h"
#include "obs/costmodel.h"
#include "obs/trace.h"

namespace sit::sched {

using runtime::Channel;
using runtime::FlatActor;
using runtime::OpCounts;
using runtime::SpscRing;

namespace {

// Local alias for the public window constant (texec.h).
constexpr int kWindow = kPipelineWindow;

// Auto-batch tuning (resolve_partition_batch).  The heuristic picks the
// smallest batch that (a) moves at least kBatchTargetItems items per ring
// publish on the thinnest cross-worker edge and (b) gives each worker at
// least kBatchTargetCycles weighted cycles of work per pipeline step, then
// caps it so total ring storage stays under kBatchMemCapDoubles and the
// factor under kMaxAutoBatch.
constexpr std::int64_t kBatchTargetItems = 256;
constexpr double kBatchTargetCycles = 100000.0;
constexpr std::int64_t kMaxAutoBatch = 1024;
constexpr std::int64_t kBatchMemCapDoubles = 1 << 21;  // 16 MiB of ring slots

#ifndef NDEBUG
constexpr bool kDebugBuild = true;
#else
constexpr bool kDebugBuild = false;
#endif

// Thrown inside a worker when another worker already failed; swallowed after
// the join (only the first error is reported).
struct Aborted {};

// Spin with backoff until `ready()`.  Cooperative: yields after
// `spin_before_yield` busy iterations so oversubscribed hosts (more workers
// than cores) keep making progress, and bails out if another worker aborted
// or nothing happened for `stall_ms` milliseconds (a bug's infinite hang
// becomes a test failure instead); stall_ms < 0 disables the abort.
template <typename Pred>
void spin_until(const std::atomic<bool>& abort, Pred&& ready, const char* what,
                int spin_before_yield, int stall_ms) {
  int spins = 0;
  std::chrono::steady_clock::time_point started{};
  while (!ready()) {
    if (abort.load(std::memory_order_acquire)) throw Aborted{};
    if (++spins < spin_before_yield) continue;
    std::this_thread::yield();
    if (stall_ms >= 0 && (spins & 2047) == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (started == std::chrono::steady_clock::time_point{}) {
        started = now;
      } else if (now - started > std::chrono::milliseconds(stall_ms)) {
        throw std::runtime_error(std::string("threaded runtime stalled: ") +
                                 what);
      }
    }
  }
}

// spin_until plus stall-interval tracing: a WaitBegin/WaitEnd pair brackets
// the spin (emitted only when the predicate is not already satisfied, so an
// uncontended wait stays event-free), and the waited nanoseconds accumulate
// into *wait_ns for the worker's utilization accounting.
template <typename Pred>
void traced_spin(const std::atomic<bool>& abort, Pred&& ready, const char* what,
                 int spin_before_yield, int stall_ms, obs::ThreadBuffer* tb,
                 obs::Recorder* rec, std::int64_t* wait_ns, std::int32_t id,
                 obs::WaitKind wk) {
  if (ready()) return;
  if (tb == nullptr) {
    spin_until(abort, ready, what, spin_before_yield, stall_ms);
    return;
  }
  const std::int64_t t0 = rec->now_ns();
  tb->emit(t0, obs::EventKind::WaitBegin, id, static_cast<std::int64_t>(wk));
  try {
    spin_until(abort, ready, what, spin_before_yield, stall_ms);
  } catch (...) {
    const std::int64_t ta = rec->now_ns();
    tb->emit(ta, obs::EventKind::WaitEnd, id, static_cast<std::int64_t>(wk));
    *wait_ns += ta - t0;
    throw;
  }
  const std::int64_t t1 = rec->now_ns();
  tb->emit(t1, obs::EventKind::WaitEnd, id, static_cast<std::int64_t>(wk));
  *wait_ns += t1 - t0;
}

bool stmt_sends(const ir::StmtP& s) {
  if (!s) return false;
  if (s->kind == ir::Stmt::Kind::Send) return true;
  for (const auto& c : s->stmts) {
    if (stmt_sends(c)) return true;
  }
  return stmt_sends(s->body) || stmt_sends(s->elseBody);
}

std::int64_t rate_into(const FlatActor& a, int edge) {
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    if (a.in_edges[p] == edge) return a.in_rate[p];
  }
  return 0;
}

// Why `g` cannot run threaded (None when it can); `bounds` are its static
// channel bounds.
FallbackReason refusal_reason(const runtime::FlatGraph& g,
                              const analysis::ChannelBounds& bounds,
                              std::string* detail) {
  for (const auto& a : g.actors) {
    if (a.kind != FlatActor::Kind::Filter) continue;
    const ir::FilterSpec& spec = a.node->filter;
    if (!spec.handlers.empty()) {
      *detail = "filter '" + spec.name + "' has teleport handlers";
      return FallbackReason::TeleportHandlers;
    }
    if (stmt_sends(spec.work) || stmt_sends(spec.init)) {
      *detail = "filter '" + spec.name + "' sends teleport messages";
      return FallbackReason::TeleportSends;
    }
  }
  if (g.actors.size() < 2) {
    *detail = "graph has fewer than two actors";
    return FallbackReason::TooFewActors;
  }

  // Single-appearance schedulability: delegated to the static channel-bound
  // analysis, which simulates one steady state in the global topological
  // order with each actor firing its full repetition count at once, starting
  // from the post-init channel populations.  If any actor comes up short,
  // the graph needs interleaved firings (e.g. a tight feedback loop) and
  // stays sequential.
  if (!bounds.single_appearance) {
    *detail = "actor '" + bounds.blocker +
              "' needs interleaved firings in the steady state";
    return FallbackReason::InterleavedFirings;
  }
  return FallbackReason::None;
}

}  // namespace

const char* to_string(FallbackReason r) {
  switch (r) {
    case FallbackReason::None: return "none";
    case FallbackReason::OneThread: return "one-thread";
    case FallbackReason::MessageSink: return "message-sink";
    case FallbackReason::TeleportHandlers: return "teleport-handlers";
    case FallbackReason::TeleportSends: return "teleport-sends";
    case FallbackReason::TooFewActors: return "too-few-actors";
    case FallbackReason::InterleavedFirings: return "interleaved-firings";
  }
  return "?";
}

std::string ThreadedReport::to_string() const {
  if (!threaded) {
    std::string s = std::string("sequential fallback=") +
                    sched::to_string(fallback);
    if (!fallback_reason.empty()) s += " (" + fallback_reason + ")";
    return s;
  }
  char speed[32];
  std::snprintf(speed, sizeof(speed), "%.2f", predicted_speedup);
  return "threaded threads=" + std::to_string(threads) +
         " ring-edges=" + std::to_string(ring_edges) +
         " batch=" + std::to_string(batch) + " speedup=" + speed;
}

ThreadedExecutor::ThreadedExecutor(ir::NodeP root, ExecOptions opts)
    : ThreadedExecutor(lower(std::move(root)), std::move(opts)) {}

ThreadedExecutor::ThreadedExecutor(CompiledProgram prog, ExecOptions opts) {
  const int requested =
      resolve_threads(opts.threads != 0 ? opts.threads : prog.threads);
  FallbackReason fb = FallbackReason::None;
  std::string detail;
  if (requested <= 1) {
    fb = FallbackReason::OneThread;
    detail = "one thread requested";
  } else if (opts.message_sink) {
    fb = FallbackReason::MessageSink;
    detail = "teleport message sink attached";
  } else {
    // The artifact is already analyzed/flattened/scheduled; compute the
    // static channel bounds and run the threaded-eligibility checks.
    bounds_ = analysis::channel_bounds(prog.flat, prog.schedule);
    fb = refusal_reason(prog.flat, bounds_, &detail);
  }
  report_.fallback = fb;
  report_.fallback_reason = detail;
  // The workers fire per actor: a fused trace would only cost set-up time
  // and memory, so Engine::Fused runs on the per-actor VM here.
  if (fb == FallbackReason::None &&
      resolve_engine(opts.engine != Engine::Auto ? opts.engine
                                                 : prog.engine) ==
          Engine::Fused) {
    opts.engine = Engine::Vm;
  }
  exec_ = std::make_unique<Executor>(std::move(prog), std::move(opts));
  rings_.resize(graph().edges.size());
  if (fb != FallbackReason::None) return;

  threads_ = std::min<int>(requested, static_cast<int>(graph().actors.size()));
  report_.threaded = true;
  report_.threads = threads_;
  stall_ms_ = resolve_stall_ms(exec_->opts_.stall_ms);
  spin_yield_ = std::max(1, exec_->opts_.spin_before_yield);
  calib_.resize(graph().actors.size());
  exec_->calib_ops_ = &calib_;
  if (exec_->rec_) {
    exec_->rec_->attach_workers(static_cast<std::size_t>(threads_));
  }
}

ThreadedExecutor::~ThreadedExecutor() = default;

std::int64_t ThreadedExecutor::edge_pushed(int edge) const {
  const auto e = static_cast<std::size_t>(edge);
  return rings_[e] ? rings_[e]->total_pushed()
                   : exec_->chans_[e]->total_pushed();
}
std::int64_t ThreadedExecutor::edge_popped(int edge) const {
  const auto e = static_cast<std::size_t>(edge);
  return rings_[e] ? rings_[e]->total_popped()
                   : exec_->chans_[e]->total_popped();
}

const std::vector<OpCounts>& ThreadedExecutor::calibration() const {
  return exec_->opts_.count_ops ? exec_->ops_ : calib_;
}

// ---- partitioning -----------------------------------------------------------

void ThreadedExecutor::partition_and_migrate() {
  const runtime::FlatGraph& g = graph();
  const Schedule& sched = schedule();
  const std::vector<OpCounts>& calib = calibration();
  const std::size_t n = g.actors.size();
  std::vector<double> cost(n, 0.0);
  // Per-epoch actor cost for LPT: a calibrated model's measured weight
  // (cycles per firing, scaled by this epoch's firing count) takes
  // precedence over the in-process calibration epoch -- a corpus profile
  // averages many more firings than the single epoch measured here.  Actors
  // the profile does not cover keep the calibration-epoch cost.
  const obs::CostModel& cmodel = obs::cost_model();
  for (std::size_t i = 0; i < n; ++i) {
    double measured = 0.0;
    if (cmodel.calibrated() &&
        cmodel.measured_cycles_per_fire(g.actors[i].name, &measured)) {
      cost[i] = measured * static_cast<double>(sched.reps[i]);
    } else {
      cost[i] = calib[i].weighted();
    }
  }

  // Longest-processing-time greedy: heaviest actor to the least loaded
  // worker.  Classic 4/3-approximate makespan balancing.
  std::vector<std::size_t> by_cost(n);
  std::iota(by_cost.begin(), by_cost.end(), std::size_t{0});
  std::sort(by_cost.begin(), by_cost.end(), [&](std::size_t x, std::size_t y) {
    return cost[x] > cost[y];
  });
  std::vector<double> load(static_cast<std::size_t>(threads_), 0.0);
  owner_.assign(n, 0);
  for (std::size_t i : by_cost) {
    const auto b = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner_[i] = static_cast<int>(b);
    load[b] += cost[i];
  }

  // Affinity pass: an actor that costs a rounding error of the balance
  // target buys nothing by sitting on its "own" worker but costs a ring
  // crossing per neighbor.  Glue such actors to their heaviest neighbor.
  const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
  const double feather = 0.01 * total / static_cast<double>(threads_);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cost[i] > feather) continue;
      int best = -1;
      double best_cost = -1.0;
      for (const auto& e : g.edges) {
        int nb = -1;
        if (e.src == static_cast<int>(i)) nb = e.dst;
        if (e.dst == static_cast<int>(i)) nb = e.src;
        if (nb >= 0 && cost[static_cast<std::size_t>(nb)] > best_cost) {
          best_cost = cost[static_cast<std::size_t>(nb)];
          best = nb;
        }
      }
      if (best >= 0) owner_[i] = owner_[static_cast<std::size_t>(best)];
    }
  }

  // Compact worker ids (LPT bins or the affinity pass may empty some) and
  // freeze each worker's firing plan in global topological order.
  std::vector<int> remap(static_cast<std::size_t>(threads_), -1);
  int used = 0;
  for (int actor : sched.order) {
    int& slot = remap[static_cast<std::size_t>(owner_[static_cast<std::size_t>(actor)])];
    if (slot < 0) slot = used++;
  }
  threads_ = used;
  plan_.assign(static_cast<std::size_t>(threads_), {});
  for (std::size_t i = 0; i < n; ++i) {
    owner_[i] = remap[static_cast<std::size_t>(owner_[i])];
  }
  for (int actor : sched.order) {
    plan_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(actor)])]
        .push_back(actor);
  }
  input_owner_ = g.input_edge >= 0
                     ? owner_[static_cast<std::size_t>(
                           g.edges[static_cast<std::size_t>(g.input_edge)].dst)]
                     : -1;

  // Freeze the batch factor for this placement (explicit request or auto
  // heuristic, both clamped to the static max_batch) before sizing storage.
  batch_ = resolve_partition_batch(cost);

  // Migrate cross-thread edges from Channel to SPSC rings in deferred
  // (bulk-publication) mode, sized to the exact static occupancy bound:
  // post-init level plus (window + 1) steps of batch * traffic -- the
  // producer of step s may run while the slowest consumer has completed
  // only step s - 1 - kWindow, so at most window + 1 steps of production
  // sit live on top of the steady level.  The sized ring never rejects a
  // push (check_bounds re-verifies this against observed high water).  The
  // Executor's tapes for the edge are repointed at the ring; its drained
  // Channel stays behind, unused.
  int ring_edges = 0;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& ed = g.edges[e];
    if (ed.src < 0 || ed.dst < 0) continue;
    if (owner_[static_cast<std::size_t>(ed.src)] ==
        owner_[static_cast<std::size_t>(ed.dst)]) {
      continue;
    }
    Channel& ch = *exec_->chans_[e];
    const std::int64_t pushed = ch.total_pushed();
    const std::int64_t popped = ch.total_popped();
    std::vector<double> live;
    live.reserve(ch.size());
    while (!ch.empty()) live.push_back(ch.pop_item());
    const std::size_t cap =
        static_cast<std::size_t>(bounds_.pipelined(e, kWindow, batch_));
    auto ring = std::make_unique<SpscRing>(cap, /*deferred=*/true);
    ring->preload(live, pushed, popped);
    exec_->in_tapes_[e] = ring.get();
    exec_->out_tapes_[e] = ring.get();
    rings_[e] = std::move(ring);
    ++ring_edges;
  }

  // Per-worker progress counters for the sliding window, counting completed
  // pipeline steps (batches), not raw iterations.
  steps_run_ = 0;
  completed_.clear();
  for (int w = 0; w < threads_; ++w) {
    auto c = std::make_unique<PaddedCounter>();
    c->v.store(0, std::memory_order_relaxed);
    completed_.push_back(std::move(c));
  }

  report_.threads = threads_;
  report_.owner = owner_;
  report_.ring_edges = ring_edges;
  report_.batch = batch_;

  // Machine-model sanity estimate for this placement: a T x 1 grid versus
  // everything on one core, software-pipelined.
  std::vector<machine::PlacedActor> pa;
  pa.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    machine::PlacedActor p;
    p.name = g.actors[i].name;
    p.core = owner_[i];
    p.compute_cycles = cost[i];
    p.flops = static_cast<double>(calib[i].flops);
    pa.push_back(std::move(p));
  }
  std::vector<machine::PlacedEdge> pe;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& ed = g.edges[e];
    machine::PlacedEdge p;
    p.src_actor = ed.src;
    p.dst_actor = ed.dst;
    p.items = static_cast<double>(sched.edge_traffic[e]);
    p.back_edge = ed.back_edge;
    pe.push_back(p);
  }
  machine::MachineConfig par_cfg;
  par_cfg.grid_w = threads_;
  par_cfg.grid_h = 1;
  const auto par = machine::simulate(par_cfg, pa, pe, machine::ExecMode::Pipelined);
  std::vector<machine::PlacedActor> pa_one = pa;
  for (auto& p : pa_one) p.core = 0;
  machine::MachineConfig one_cfg;
  one_cfg.grid_w = 1;
  one_cfg.grid_h = 1;
  const auto seq = machine::simulate(one_cfg, pa_one, pe, machine::ExecMode::Pipelined);
  report_.predicted_speedup =
      par.cycles_per_steady > 0 ? seq.cycles_per_steady / par.cycles_per_steady
                                : 0.0;

  partitioned_ = true;
}

int ThreadedExecutor::resolve_partition_batch(
    const std::vector<double>& cost) const {
  const runtime::FlatGraph& g = graph();
  const Schedule& sched = schedule();
  std::int64_t b = resolve_batch(exec_->opts_.batch);
  if (b < 0) {
    // Auto: amortize each ring publish and each window advance.  Both
    // targets look at this placement's cross-worker edges; a placement with
    // none (single effective worker slices never happen here, but affinity
    // can glue everything contiguous) needs no batching.
    std::int64_t min_traffic = 0;
    std::int64_t sum_traffic = 0;
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const auto& ed = g.edges[e];
      if (ed.src < 0 || ed.dst < 0) continue;
      if (owner_[static_cast<std::size_t>(ed.src)] ==
          owner_[static_cast<std::size_t>(ed.dst)]) {
        continue;
      }
      const std::int64_t t = std::max<std::int64_t>(1, sched.edge_traffic[e]);
      min_traffic = min_traffic == 0 ? t : std::min(min_traffic, t);
      sum_traffic += t;
    }
    if (min_traffic == 0) {
      b = 1;
    } else {
      const double total =
          std::accumulate(cost.begin(), cost.end(), 0.0);
      const double per_worker =
          std::max(1.0, total / static_cast<double>(threads_));
      const std::int64_t b_items =
          (kBatchTargetItems + min_traffic - 1) / min_traffic;
      const auto b_cycles =
          static_cast<std::int64_t>(std::ceil(kBatchTargetCycles / per_worker));
      b = std::max<std::int64_t>({1, b_items, b_cycles});
      // Ring storage grows linearly in the batch: cap the total at
      // kBatchMemCapDoubles across all rings.
      const std::int64_t per_b = (kWindow + 1) * sum_traffic;
      if (per_b > 0) b = std::min(b, std::max<std::int64_t>(1, kBatchMemCapDoubles / per_b));
      b = std::min(b, kMaxAutoBatch);
    }
  }
  // A back edge whose delay cannot cover B iterations caps the batch (the
  // eligibility check already guaranteed max_batch >= 1).
  b = std::min(b, bounds_.max_batch);
  return static_cast<int>(std::max<std::int64_t>(1, b));
}

// ---- the threaded steady state ----------------------------------------------

std::int64_t ThreadedExecutor::min_completed() const {
  std::int64_t m = completed_[0]->v.load(std::memory_order_acquire);
  for (std::size_t w = 1; w < completed_.size(); ++w) {
    m = std::min(m, completed_[w]->v.load(std::memory_order_acquire));
  }
  return m;
}

void ThreadedExecutor::wait_ready(int actor, std::int64_t chunk,
                                  obs::ThreadBuffer* tb,
                                  std::int64_t* wait_ns) {
  const auto ai = static_cast<std::size_t>(actor);
  const FlatActor& a = graph().actors[ai];
  const Schedule& sched = schedule();
  obs::Recorder* const rec = exec_->rec_.get();
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    const int eid = a.in_edges[p];
    if (eid < 0 || !rings_[static_cast<std::size_t>(eid)]) continue;
    SpscRing& r = *rings_[static_cast<std::size_t>(eid)];
    std::int64_t need = sched.reps[ai] * chunk * a.in_rate[p];
    if (a.is_filter()) need += a.peek_extra;
    const auto un = static_cast<std::size_t>(need);
    traced_spin(abort_, [&] { return r.can_pop(un); }, "waiting for input data",
                spin_yield_, stall_ms_, tb, rec, wait_ns, actor,
                obs::WaitKind::Input);
  }
  for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
    const int eid = a.out_edges[p];
    if (eid < 0 || !rings_[static_cast<std::size_t>(eid)]) continue;
    SpscRing& r = *rings_[static_cast<std::size_t>(eid)];
    const auto room =
        static_cast<std::size_t>(sched.reps[ai] * chunk * a.out_rate[p]);
    traced_spin(abort_, [&] { return r.can_push(room); },
                "waiting for output space", spin_yield_, stall_ms_, tb,
                rec, wait_ns, actor, obs::WaitKind::Space);
  }
}

void ThreadedExecutor::stage_input(std::int64_t last_iter, std::int64_t chunk) {
  const runtime::FlatGraph& g = graph();
  const Schedule& sched = schedule();
  const std::int64_t need_total =
      sched.input_for_init + last_iter * sched.input_per_steady;
  exec_->ensure_input_for(need_total);
  // Whether fed explicitly or generated, this whole step's quota must be
  // present now -- the consumer pops from a plain Channel nobody refills
  // mid-step.
  const auto ie = static_cast<std::size_t>(g.input_edge);
  const FlatActor& d = g.actors[static_cast<std::size_t>(g.edges[ie].dst)];
  std::int64_t need = sched.reps[static_cast<std::size_t>(g.edges[ie].dst)] *
                      chunk * rate_into(d, g.input_edge);
  if (d.is_filter()) need += d.peek_extra;
  if (static_cast<std::int64_t>(exec_->chans_[ie]->size()) < need) {
    throw std::runtime_error(
        "runtime deadlock: external input starved (feed_input more items or "
        "set an input generator)");
  }
}

void ThreadedExecutor::worker(int w, std::int64_t first,
                              std::int64_t last) noexcept {
  Executor& ex = *exec_;
  const runtime::FlatGraph& g = ex.g_;
  const Schedule& sched = ex.sched_;
  obs::Recorder* const rec = ex.rec_.get();
  // Each worker owns one thread buffer and one WorkerStats slot (worker 0
  // runs on the main thread and shares the Executor's buffer with the
  // sequential epochs, which never run concurrently with workers).
  obs::ThreadBuffer* tb = nullptr;
  std::int64_t t_start = 0;
  std::int64_t wait_ns = 0;
  std::int64_t iters_done = 0;
  if (rec != nullptr) {
    tb = w == 0 ? ex.tb_ : rec->thread_buffer(w);
    t_start = rec->now_ns();
  }
  try {
    // Walk the run's iterations in steps of `batch_` (the final step may be
    // a remainder chunk); every worker derives the same step boundaries from
    // (first, last, batch_), and the window counters count steps.
    std::int64_t step = steps_run_;
    for (std::int64_t lo = first; lo <= last; lo += batch_) {
      const std::int64_t hi = std::min<std::int64_t>(last, lo + batch_ - 1);
      const std::int64_t chunk = hi - lo + 1;
      ++step;
      // Sliding window: run at most kWindow steps ahead of the slowest
      // worker, which bounds every ring's occupancy.
      traced_spin(abort_,
                  [&] { return min_completed() >= step - 1 - kWindow; },
                  "iteration window", spin_yield_, stall_ms_, tb, rec,
                  &wait_ns, -1, obs::WaitKind::Window);
      if (w == input_owner_) stage_input(hi, chunk);
      for (int actor : plan_[static_cast<std::size_t>(w)]) {
        wait_ready(actor, chunk, tb, &wait_ns);
        const auto ai = static_cast<std::size_t>(actor);
        const FlatActor& a = g.actors[ai];
        OpCounts* counts = ex.opts_.count_ops ? &ex.ops_[ai] : nullptr;
        for (std::int64_t k = 0; k < sched.reps[ai] * chunk; ++k) {
          ex.fire(actor, counts, tb);
          // High water on the actor's plain channels only: this worker owns
          // them, and rings track their own.
          for (const int eid : a.in_edges) {
            if (eid >= 0 && !rings_[static_cast<std::size_t>(eid)]) {
              ex.chans_[static_cast<std::size_t>(eid)]->note_high_water();
            }
          }
          for (const int eid : a.out_edges) {
            if (eid >= 0 && !rings_[static_cast<std::size_t>(eid)]) {
              ex.chans_[static_cast<std::size_t>(eid)]->note_high_water();
            }
          }
        }
        // Bulk publication: one release store per ring per step makes the
        // whole batch of firings visible / returns the whole batch of slots.
        for (const int eid : a.out_edges) {
          if (eid >= 0 && rings_[static_cast<std::size_t>(eid)]) {
            rings_[static_cast<std::size_t>(eid)]->publish_tail();
          }
        }
        for (const int eid : a.in_edges) {
          if (eid >= 0 && rings_[static_cast<std::size_t>(eid)]) {
            rings_[static_cast<std::size_t>(eid)]->publish_head();
          }
        }
      }
      completed_[static_cast<std::size_t>(w)]->v.store(
          step, std::memory_order_release);
      iters_done += chunk;
    }
  } catch (const Aborted&) {
    // Another worker failed first; unwind quietly.
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lk(err_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    abort_.store(true, std::memory_order_release);
  }
  if (rec != nullptr) {
    obs::WorkerStats& ws = rec->worker_stats(w);
    ws.wall_ns += rec->now_ns() - t_start;
    ws.wait_ns += wait_ns;
    ws.iters += iters_done;
  }
}

void ThreadedExecutor::run_threaded(int iters) {
  const std::int64_t first = exec_->steady_run_ + 1;
  const std::int64_t last = exec_->steady_run_ + iters;
  abort_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    pool.emplace_back([this, w, first, last] { worker(w, first, last); });
  }
  worker(0, first, last);
  for (auto& t : pool) t.join();
  exec_->steady_run_ = last;
  steps_run_ += (static_cast<std::int64_t>(iters) + batch_ - 1) / batch_;
  if (first_error_) std::rethrow_exception(first_error_);
}

std::vector<double> ThreadedExecutor::run_steady(int n) {
  Executor& ex = *exec_;
  if (!report_.threaded) return ex.run_steady(n);
  ex.run_init();
  int remaining = n;
  if (!partitioned_ && remaining > 0) {
    // Calibration: one sequential steady state to measure per-actor work,
    // then freeze the partition and migrate cross-thread edges.
    if (ex.tb_ != nullptr) {
      ex.tb_->emit(ex.rec_->now_ns(), obs::EventKind::Phase,
                   static_cast<std::int32_t>(obs::PhaseId::Calibration));
    }
    ex.steady_epoch();
    --remaining;
    partition_and_migrate();
  }
  if (remaining > 0) {
    ex.mark_steady();
    run_threaded(remaining);
    // With the workers joined, every high-water counter is quiescent;
    // debug and observability builds re-verify the static bounds held.
    if (kDebugBuild || obs::kCompiledIn) check_bounds();
  }
  return ex.take_output();
}

std::int64_t ThreadedExecutor::edge_bound(std::size_t e) const {
  if (e >= bounds_.post_init.size() || bounds_.post_init[e] < 0) return -1;
  return rings_[e] ? bounds_.pipelined(e, kWindow, batch_)
                   : bounds_.channel_bound(e, batch_);
}

std::int64_t ThreadedExecutor::edge_peak(std::size_t e) const {
  return static_cast<std::int64_t>(rings_[e] ? rings_[e]->high_water()
                                             : exec_->chans_[e]->high_water());
}

void ThreadedExecutor::check_bounds() const {
  const runtime::FlatGraph& g = graph();
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const std::int64_t limit = edge_bound(e);
    if (limit < 0) continue;
    const std::int64_t seen = edge_peak(e);
    if (seen > limit) {
      const auto& ed = g.edges[e];
      const std::string name =
          g.actors[static_cast<std::size_t>(ed.src)].name + "->" +
          g.actors[static_cast<std::size_t>(ed.dst)].name;
      throw std::logic_error(
          "channel-bound violation on edge '" + name + "' (" +
          (rings_[e] ? "ring" : "channel") + "): observed peak " +
          std::to_string(seen) + " items exceeds static bound " +
          std::to_string(limit));
    }
  }
}

obs::MetricsSnapshot ThreadedExecutor::metrics_snapshot() const {
  obs::MetricsSnapshot m = exec_->metrics_snapshot();
  m.fallback = sched::to_string(report_.fallback);
  m.fallback_detail = report_.fallback_reason;
  if (!report_.threaded) return m;

  m.threads = threads_;
  m.batch = batch_;
  m.threaded = true;
  m.predicted_speedup = report_.predicted_speedup;
  // The partitioners' cost: calibration cycles whether or not per-firing
  // counting stayed on afterwards.
  const std::vector<OpCounts>& calib = calibration();
  for (std::size_t i = 0; i < m.actors.size(); ++i) {
    m.actors[i].calib_cycles = calib[i].weighted();
    m.actors[i].worker = partitioned_ ? owner_[i] : 0;
  }
  for (std::size_t e = 0; e < m.edges.size(); ++e) {
    obs::EdgeSnapshot& s = m.edges[e];
    s.ring = rings_[e] != nullptr;
    s.pushed = edge_pushed(static_cast<int>(e));
    s.popped = edge_popped(static_cast<int>(e));
    s.peak_items = edge_peak(e);
    s.bound_items = edge_bound(e);
  }
  for (int w = 0; w < threads_; ++w) {
    obs::WorkerSnapshot ws;
    ws.id = w;
    ws.actors = partitioned_
                    ? static_cast<int>(plan_[static_cast<std::size_t>(w)].size())
                    : 0;
    const obs::Recorder* rec = exec_->recorder();
    if (rec != nullptr &&
        static_cast<std::size_t>(w) < rec->all_worker_stats().size()) {
      const obs::WorkerStats& st = rec->all_worker_stats()[static_cast<std::size_t>(w)];
      ws.wall_ns = st.wall_ns;
      ws.wait_ns = st.wait_ns;
      ws.iters = st.iters;
    }
    m.workers.push_back(ws);
  }
  return m;
}

}  // namespace sit::sched
