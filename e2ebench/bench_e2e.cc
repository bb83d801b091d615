// End-to-end ledger: every app of apps::all_apps() through the public API,
// opt::compile -> sched::Executor / sched::ThreadedExecutor -> run_init /
// run_steady, with each app's output checked against an independent
// reference.
//
//   bench_e2e --workload <o2-seq|o0-seq|o2-t4> --seed N --seconds S
//             --trace <0|1> [--spans FILE] [--git-sha SHA] [--source-id ID]
//
// Workloads (the app set is identical in all three):
//   o2-seq  -O2 preset, Engine::Fused + TypedMode::On, 1 thread
//   o0-seq  -O0 preset, Engine::Fused + TypedMode::On, 1 thread
//   o2-t4   -O2 preset + coarsen, ThreadedExecutor, 4 threads, batch auto,
//           Engine::Fused requested
//
// Every CompileOptions / ExecOptions field is pinned here; the benchmark
// refuses to run when any SIT_* variable is set, since SIT_COST (read
// lazily by the cost model) could otherwise change what was measured.
//
// Closed loop: one caller, apps one after another in an order permuted by
// --seed.  Per app: compute the reference output (untimed), set up
// kSetupReps times (compile + executor construction + run_init + first
// steady state; the last executor is kept), then run fixed-size batches of
// steady states back to back for the app's share of --seconds.  A batch is
// the same work on every commit: enough whole steady states to cover the
// workload's batch_items source items.  The apps' inputs are their own
// fixed-seed LCG sources; --seed only permutes the app order.  Throughput
// and set-up time are scaled by a host-speed probe (see kProbeNominal).
//
// The reference is the tree interpreter (Engine::Tree, TypedMode::Off) on
// the uncompiled graph with its final sink dropped; the first kCheckItems
// outputs must agree to 1e-7 relative (tests/test_pipeline_diff.cc).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
// spans around each call into a layer, operation counting on, and (o2-t4)
// the runtime's TraceMode::On recorder for worker busy/wait, and prints the
// per-layer metrics.  The last stdout line is one JSON object.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "handwritten.h"
#include "obs/costmodel.h"
#include "opt/compile.h"
#include "probe.h"
#include "sched/exec.h"
#include "sched/texec.h"

#ifndef SIT_BENCH_BUILD_TYPE
#define SIT_BENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using sit::opt::OptLevel;
using sit::sched::Engine;
using sit::sched::ExecOptions;
using sit::sched::TraceMode;
using sit::sched::TypedMode;

constexpr int kSetupReps = 5;          // set-ups per app; medians reported
constexpr int kCheckItems = 256;       // output prefix checked (test: 60)
constexpr double kTol = 1e-7;          // relative, as test_pipeline_diff
constexpr int kMinBatches = 3;

const Clock::time_point g_epoch = Clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_epoch)
      .count();
}

struct Workload {
  const char* name;
  OptLevel level;
  bool coarsen;
  int threads;
  // Source items per timed batch.  The threaded runtime starts and joins
  // its workers on every run_steady call, so its batches are longer.
  std::int64_t batch_items;
};

const Workload kWorkloads[] = {
    {"o2-seq", OptLevel::O2, false, 1, 4096},
    {"o0-seq", OptLevel::O0, false, 1, 4096},
    {"o2-t4", OptLevel::O2, true, 4, 16384},
};

std::string pass_spec(const Workload& w) {
  std::string spec;
  for (const auto& p : sit::opt::preset(w.level)) {
    spec += (spec.empty() ? "" : ",") + p;
  }
  if (w.coarsen) spec += ",coarsen";
  return spec;
}

ExecOptions exec_options(const Workload& w, bool traced) {
  ExecOptions e;
  e.count_ops = traced;
  e.engine = Engine::Fused;
  e.threads = w.threads;
  e.batch = -1;  // auto
  e.trace = traced && w.threads > 1 ? TraceMode::On : TraceMode::Off;
  e.typed = TypedMode::On;
  e.stall_ms = 120000;
  e.spin_before_yield = 128;
  return e;
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::string app;
  int parent{-1};
  double t0{0};
  double t1{0};
};

// In-memory span log; a no-op unless enabled.  Written out at the end.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  int open(const std::string& name, int parent, const std::string& app = "") {
    if (!on_) return -1;
    spans_.push_back({name, app, parent, now_ms(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_ms();
  }
  void add(const std::string& name, int parent, double t0, double t1,
           const std::string& app) {
    if (on_) spans_.push_back({name, app, parent, t0, t1});
  }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Spans& s, const std::string& name, int parent,
        const std::string& app = "")
      : s_(s), id_(s.open(name, parent, app)) {}
  ~Scope() { s_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Spans& s_;
  int id_;
};

// ---- host-speed probe ------------------------------------------------------
//
// On a shared host, co-tenant load changes how fast a core runs over minutes:
// on a 4-vCPU VM, raw items/s spread 7-20% (quartiles over 10 runs), which
// swamps a 10% regression.  Scaled by the probe, they spread 1.4-6.9%.  Each
// timed batch and each set-up is therefore bracketed by a short probe (a
// handwritten FIR over kProbeItems items, probe.cc), and the reported
// throughput and set-up time are scaled to a reference host on which the
// probe runs at kProbeNominal items/s: scaled = raw * kProbeNominal / probe
// for rates, raw * probe / kProbeNominal for times.  The raw figures and the
// probe are reported next to them.

constexpr std::int64_t kProbeItems = 2048;
constexpr double kProbeNominal = 1e7;  // probe items/s on the reference host

double probe_once() {
  const auto t0 = Clock::now();
  volatile double sink = e2e::probe_kernel(kProbeItems);
  (void)sink;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seconds one probe takes: the mean over `threads` concurrent copies, so a
// multi-threaded batch is scaled by the speed of as many cores as it uses.
double probe_seconds(Spans& spans, int parent, const std::string& app,
                     int threads = 1) {
  Scope sc(spans, "bench.probe", parent, app);
  std::vector<double> secs(static_cast<std::size_t>(threads), 0.0);
  {
    std::vector<std::jthread> others;  // joined at the end of this block
    for (int t = 1; t < threads; ++t) {
      others.emplace_back(
          [&secs, t] { secs[static_cast<std::size_t>(t)] = probe_once(); });
    }
    secs[0] = probe_once();
  }
  return std::accumulate(secs.begin(), secs.end(), 0.0) / threads;
}

// Probe items/s from the probes before and after a timed region.
double probe_rate(double before_s, double after_s) {
  return 2.0 * static_cast<double>(kProbeItems) / (before_s + after_s);
}

// ---- small helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

// A "VmRSS" / "VmHWM" line of /proc/self/status in MB; -1 if unreadable.
double status_mb(const char* key) {
  std::ifstream st("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(st, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;  // kB
    }
  }
  return -1.0;
}

// Start a new peak-RSS window (VmHWM := VmRSS).  Returns false where the
// kernel does not support it.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return static_cast<bool>(f);
}

// Hand freed heap pages back to the kernel before each set-up and app, so
// resident memory tracks live memory.
void release_free_memory() { malloc_trim(0); }

std::int64_t total_ops(const sit::runtime::OpCounts& c) {
  return c.int_ops + c.flops + c.divs + c.trans + c.mem + c.channel;
}

// Drop the final sink so the program output edge is observable (as
// tests/test_pipeline_diff.cc does).
sit::ir::NodeP observable(const sit::ir::NodeP& app) {
  if (app->kind != sit::ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<sit::ir::NodeP> kids(app->children.begin(),
                                   app->children.end() - 1);
  return sit::ir::make_pipeline(app->name + "_obs", kids);
}

// Items the source actor emits per steady state (bench_fused's
// normalization: invariant under fusion, fission and linear rewrites).
std::int64_t source_items_per_steady(const sit::runtime::FlatGraph& g,
                                     const sit::sched::Schedule& s) {
  if (s.input_per_steady > 0) return s.input_per_steady;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    const auto& a = g.actors[i];
    bool has_in = false;
    for (int e : a.in_edges) has_in |= e >= 0;
    if (!has_in) return s.reps[i] * a.push_rate();
  }
  return 0;
}

// A throughput: medians over batches of the scaled and raw items/s and of
// the probe's items/s.
struct Rate {
  double scaled{0};
  double raw{0};
  double host{0};
  int batches{0};
};

// ---- one executor, either kind ---------------------------------------------

struct Runner {
  std::unique_ptr<sit::sched::Executor> seq;
  std::unique_ptr<sit::sched::ThreadedExecutor> thr;

  void run_init() { seq ? seq->run_init() : thr->run_init(); }
  std::vector<double> run_steady(int n) {
    return seq ? seq->run_steady(n) : thr->run_steady(n);
  }
  [[nodiscard]] sit::runtime::OpCounts ops() const {
    return seq ? seq->total_ops() : thr->total_ops();
  }
  [[nodiscard]] sit::obs::MetricsSnapshot snapshot() const {
    return seq ? seq->metrics_snapshot() : thr->metrics_snapshot();
  }
  [[nodiscard]] std::int64_t items_per_steady() const {
    return seq ? source_items_per_steady(seq->graph(), seq->schedule())
               : source_items_per_steady(thr->graph(), thr->schedule());
  }
};

// What one set-up produced: the executor plus the statics that describe
// what will be timed (all deterministic counts are compared across reps).
struct Setup {
  Runner run;
  std::vector<double> first_out;
  double compile_ms{0};
  double construct_ms{0};
  double init_ms{0};
  double first_ms{0};
  std::string pipeline;
  std::vector<sit::obs::PassSnapshot> passes;
  int actors{0};
  int edges{0};
  int natives{0};
  int combined{0};
  int freq{0};
  [[nodiscard]] double total_ms() const {
    return compile_ms + construct_ms + init_ms + first_ms;
  }
};

Setup set_up(const sit::ir::NodeP& graph, const Workload& w, bool traced,
             Spans& spans, int parent, const std::string& app) {
  Setup s;
  sit::opt::CompileOptions copts;
  copts.level = w.level;
  copts.passes = pass_spec(w);
  copts.exec = exec_options(w, traced);
  copts.pass.threads = w.threads;
  copts.pass.target_actors = 0;
  copts.pass.verify_each = sit::opt::VerifyMode::Off;
  copts.ensure_gate = true;

  sit::sched::CompiledProgram prog;
  sit::opt::PassContext ctx;
  {
    Scope sc(spans, "opt.compile", parent, app);
    copts.on_pass = [&](const sit::obs::PassSnapshot& p,
                        const sit::ir::NodeP&) {
      const double t1 = now_ms();
      spans.add("opt.pass." + p.name, sc.id(),
                t1 - static_cast<double>(p.wall_ns) / 1e6, t1, app);
    };
    const double t0 = now_ms();
    prog = sit::opt::compile(graph, copts, &ctx);
    s.compile_ms = now_ms() - t0;
  }
  s.pipeline = prog.pipeline;
  s.passes = prog.passes;
  s.actors = static_cast<int>(prog.flat.actors.size());
  s.edges = static_cast<int>(prog.flat.edges.size());
  for (const auto& a : prog.flat.actors) {
    s.natives += a.kind == sit::runtime::FlatActor::Kind::Native;
  }
  for (const auto& r : ctx.rewrites) {
    if (!r.applied) continue;
    s.combined += r.pass == "combine";
    s.freq += r.pass == "frequency";
  }
  {
    Scope sc(spans, "sched.exec.construct", parent, app);
    const double t0 = now_ms();
    if (w.threads > 1) {
      s.run.thr = std::make_unique<sit::sched::ThreadedExecutor>(
          std::move(prog), exec_options(w, traced));
    } else {
      s.run.seq = std::make_unique<sit::sched::Executor>(
          std::move(prog), exec_options(w, traced));
    }
    s.construct_ms = now_ms() - t0;
  }
  {
    Scope sc(spans, "sched.exec.init", parent, app);
    const double t0 = now_ms();
    s.run.run_init();
    s.init_ms = now_ms() - t0;
  }
  {
    Scope sc(spans, "runtime.first_steady", parent, app);
    const double t0 = now_ms();
    s.first_out = s.run.run_steady(1);
    s.first_ms = now_ms() - t0;
  }
  return s;
}

// The engine that actually ran, in words, plus the fast-path facts.
struct EngineFacts {
  std::string desc;
  bool fused{false};
  bool typed{false};
  std::int64_t trace_instrs{0};
  std::int64_t super{0};
  bool threaded{false};
  int ring_edges{0};
  int batch{1};
};

EngineFacts engine_facts(const Runner& r) {
  EngineFacts f;
  if (r.seq) {
    const auto& ex = *r.seq;
    if (const auto* fp = ex.fused_program()) {
      f.fused = true;
      f.trace_instrs = static_cast<std::int64_t>(fp->code.size());
      for (const auto& [name, n] : fp->super) f.super += n;
      f.typed = ex.typed_fused_program() != nullptr;
      f.desc = f.typed ? "typed-fused"
                       : "fused (typed refused: " + ex.typed_fused_refusal() +
                             ")";
    } else {
      f.desc = "vm (fused refused: " + ex.fused_refusal() + ")";
    }
    return f;
  }
  const auto& rep = r.thr->report();
  const sit::obs::MetricsSnapshot m = r.thr->metrics_snapshot();
  f.threaded = rep.threaded;
  f.ring_edges = rep.ring_edges;
  f.batch = rep.batch;
  f.fused = m.fused_channels >= 0;
  for (const auto& [name, n] : m.fused_super) f.super += n;
  // Typed: every typing candidate actor runs on the dual-plane registers.
  bool refused = false;
  for (const auto& a : m.actors) {
    refused |= !a.typed_status.empty() && a.typed_status != "typed";
  }
  f.typed = m.typed_actors > 0 && !refused;
  f.desc = rep.to_string() + "; engine=" + m.engine +
           (f.fused ? " fused" : "") +
           " typed-actors=" + std::to_string(m.typed_actors) +
           (refused ? " (typed refusals)" : "");
  return f;
}

// ---- per-app run -----------------------------------------------------------

struct AppResult {
  std::string name;
  bool ok{false};
  std::string error;
  std::string engine;
  std::string pipeline;
  std::int64_t items_per_steady{0};
  int steadies_per_batch{0};
  Rate rate;         // untraced executor
  Rate traced;       // traced executor (traced run only)
  Rate seq;          // o2-seq config on this app (o2-t4 traced run only)
  // Per set-up: compile + construct + init + first steady, raw and scaled.
  std::vector<double> setup_ms, setup_scaled_ms;
  std::vector<double> compile_ms, construct_ms, init_ms;
  std::map<std::string, std::vector<double>> pass_ms;
  int actors{0}, edges{0}, natives{0}, combined{0}, freq{0};
  EngineFacts facts;
  double ops_per_item{0};
  double busy_ms{0}, wait_ms{0};
  double max_rel_err{0};
  double peak_mb{0};  // resident-set high water above the RSS at app start
};

std::vector<double> reference_output(const sit::ir::NodeP& graph) {
  ExecOptions o;
  o.count_ops = false;
  o.engine = Engine::Tree;
  o.typed = TypedMode::Off;
  o.threads = 1;
  o.trace = TraceMode::Off;
  sit::sched::Executor ex(graph, o);
  std::vector<double> out;
  for (int guard = 0; static_cast<int>(out.size()) < kCheckItems; ++guard) {
    if (guard > 100000) throw std::runtime_error("reference gives no output");
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(kCheckItems);
  return out;
}

// Time fixed-size batches of steady states until `slice_ms` is spent (at
// least kMinBatches), each bracketed by probes.  Outputs are appended to
// *out until it holds kCheckItems items.
Rate measure(Runner& r, int n, std::int64_t items_per_batch, double slice_ms,
             int threads, std::vector<double>* out, Spans& spans, int parent,
             const std::string& app,
             const std::function<void()>& after_first = {}) {
  std::vector<double> raw, scaled, host;
  const double end = now_ms() + slice_ms;
  do {
    const double before = probe_seconds(spans, parent, app, threads);
    const int id = spans.open("runtime.steady", parent, app);
    const auto t0 = Clock::now();
    const std::vector<double> got = r.run_steady(n);
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    spans.close(id);
    const double p =
        probe_rate(before, probe_seconds(spans, parent, app, threads));
    raw.push_back(static_cast<double>(items_per_batch) / s);
    scaled.push_back(raw.back() * kProbeNominal / p);
    host.push_back(p);
    if (out != nullptr && out->size() < kCheckItems) {
      out->insert(out->end(), got.begin(), got.end());
    }
    if (raw.size() == 1 && after_first) after_first();
  } while (now_ms() < end || static_cast<int>(raw.size()) < kMinBatches);
  return {median(scaled), median(raw), median(host),
          static_cast<int>(raw.size())};
}

// Compare the checked prefix; returns the number of mismatches and the
// largest relative error.
int check_output(const std::vector<double>& ref, const std::vector<double>& got,
                 double* max_rel) {
  int bad = 0;
  *max_rel = 0.0;
  if (got.size() < ref.size()) return static_cast<int>(ref.size() - got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(ref[i]));
    const double rel = std::fabs(ref[i] - got[i]) / scale;
    if (!(rel <= kTol)) ++bad;  // NaN counts as a mismatch
    *max_rel = std::max(*max_rel, std::isfinite(rel) ? rel : 1.0);
  }
  return bad;
}

AppResult run_app(const sit::apps::AppInfo& info, const Workload& w,
                  bool traced, double slice_ms, Spans& spans, int parent) {
  AppResult res;
  res.name = info.name;
  Scope app_span(spans, "bench.app", parent, info.name);
  const int aid = app_span.id();
  try {
    const sit::ir::NodeP graph = observable(info.make());
    std::vector<double> ref;
    {
      Scope sc(spans, "bench.reference", aid, info.name);
      ref = reference_output(graph);
    }

    Setup keep;
    std::vector<int> counts0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      release_free_memory();
      Scope sc(spans, "bench.setup", aid, info.name);
      const double before = probe_seconds(spans, sc.id(), info.name);
      Setup s = set_up(graph, w, traced, spans, sc.id(), info.name);
      const double host =
          probe_rate(before, probe_seconds(spans, sc.id(), info.name));
      res.setup_ms.push_back(s.total_ms());
      res.setup_scaled_ms.push_back(s.total_ms() * host / kProbeNominal);
      res.compile_ms.push_back(s.compile_ms);
      res.construct_ms.push_back(s.construct_ms);
      res.init_ms.push_back(s.init_ms);
      for (const auto& p : s.passes) {
        res.pass_ms[p.name].push_back(static_cast<double>(p.wall_ns) / 1e6);
      }
      const EngineFacts f = engine_facts(s.run);
      const std::vector<int> counts = {
          s.actors, s.edges, s.natives, s.combined, s.freq,
          static_cast<int>(f.trace_instrs), static_cast<int>(f.super)};
      if (rep == 0) {
        counts0 = counts;
      } else if (counts != counts0) {
        throw std::runtime_error("compile/trace counts differ between set-ups");
      }
      if (rep == kSetupReps - 1) keep = std::move(s);
    }
    res.pipeline = keep.pipeline;
    res.actors = keep.actors;
    res.edges = keep.edges;
    res.natives = keep.natives;
    res.combined = keep.combined;
    res.freq = keep.freq;
    res.facts = engine_facts(keep.run);
    res.engine = res.facts.desc;
    res.items_per_steady = keep.run.items_per_steady();
    if (res.items_per_steady <= 0) {
      throw std::runtime_error("no source items per steady state");
    }
    res.steadies_per_batch = static_cast<int>(
        (w.batch_items + res.items_per_steady - 1) / res.items_per_steady);
    const std::int64_t batch_items =
        res.items_per_steady * res.steadies_per_batch;

    std::vector<double> out = keep.first_out;
    sit::runtime::OpCounts ops0 = keep.run.ops(), ops1 = ops0;
    const sit::obs::MetricsSnapshot m0 =
        traced ? keep.run.snapshot() : sit::obs::MetricsSnapshot{};
    // Traced: ops per item over exactly the first batch.
    const Rate first =
        measure(keep.run, res.steadies_per_batch, batch_items,
                traced ? slice_ms / 2 : slice_ms, w.threads, &out, spans, aid,
                info.name, [&] { ops1 = keep.run.ops(); });
    {
      Scope sc(spans, "bench.check", aid, info.name);
      for (int guard = 0; out.size() < kCheckItems; ++guard) {
        if (guard > 100000) throw std::runtime_error("program output stalled");
        const auto got = keep.run.run_steady(1);
        out.insert(out.end(), got.begin(), got.end());
      }
      const int bad = check_output(ref, out, &res.max_rel_err);
      res.ok = bad == 0;
      if (!res.ok) {
        res.error = std::to_string(bad) + " of " + std::to_string(kCheckItems) +
                    " output items differ from the tree reference (max rel " +
                    std::to_string(res.max_rel_err) + ")";
      }
    }
    if (!traced) {
      res.rate = first;
      return res;
    }
    res.traced = first;
    res.ops_per_item = static_cast<double>(total_ops(ops1) - total_ops(ops0)) /
                       static_cast<double>(batch_items);
    // Worker busy/wait over the traced segment (threaded runtime only).
    const sit::obs::MetricsSnapshot m1 = keep.run.snapshot();
    for (std::size_t i = 0; i < m1.workers.size(); ++i) {
      std::int64_t wall = m1.workers[i].wall_ns;
      std::int64_t wait = m1.workers[i].wait_ns;
      if (i < m0.workers.size()) {
        wall -= m0.workers[i].wall_ns;
        wait -= m0.workers[i].wait_ns;
      }
      res.busy_ms += static_cast<double>(wall - wait) / 1e6;
      res.wait_ms += static_cast<double>(wait) / 1e6;
    }
    keep = Setup{};
    {
      // Untraced twin: the per-app rate and the tracing overhead.
      Scope sc(spans, "bench.untraced", aid, info.name);
      Setup u = set_up(graph, w, false, spans, sc.id(), info.name);
      res.rate = measure(u.run, res.steadies_per_batch, batch_items,
                         slice_ms / 2, w.threads, nullptr, spans, sc.id(),
                         info.name);
    }
    if (w.threads > 1) {
      // The best sequential configuration (o2-seq) on the same app.
      Scope sc(spans, "bench.seq_baseline", aid, info.name);
      Setup b = set_up(graph, kWorkloads[0], false, spans, sc.id(), info.name);
      const std::int64_t ipss = b.run.items_per_steady();
      const std::int64_t items = kWorkloads[0].batch_items;
      const int n = static_cast<int>((items + ipss - 1) / ipss);
      res.seq = measure(b.run, n, ipss * n, slice_ms / 2, 1, nullptr, spans,
                        sc.id(), info.name);
    }
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = std::string("threw: ") + e.what();
  }
  return res;
}

// ---- handwritten references ------------------------------------------------

struct HandRef {
  const char* app;
  double (*kernel)(std::int64_t);
  std::int64_t units;           // work units per timed call
  std::int64_t items_per_unit;  // source items per unit
};

const HandRef kHandRefs[] = {
    {"FIR", e2e::hand::handwritten_fir, 16384, 1},
    {"Vocoder", e2e::hand::handwritten_vocoder, 16384, 1},
    {"FilterBank", e2e::hand::handwritten_filter_bank, 2048, 8},
};

Rate hand_rate(const HandRef& h, double slice_ms, Spans& spans, int parent) {
  std::vector<double> raw, scaled, host;
  volatile double sink = 0.0;
  const double end = now_ms() + slice_ms;
  do {
    const double before = probe_seconds(spans, parent, h.app);
    const auto t0 = Clock::now();
    sink = sink + h.kernel(h.units);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double p = probe_rate(before, probe_seconds(spans, parent, h.app));
    raw.push_back(static_cast<double>(h.units * h.items_per_unit) / s);
    scaled.push_back(raw.back() * kProbeNominal / p);
    host.push_back(p);
  } while (now_ms() < end || static_cast<int>(raw.size()) < kMinBatches);
  (void)sink;
  return {median(scaled), median(raw), median(host),
          static_cast<int>(raw.size())};
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool write_spans(const std::string& path, const Spans& spans) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"unit\": \"ms\", \"spans\": [\n";
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << "  {\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": \""
      << json_escape(s.name) << "\", \"app\": \"" << json_escape(s.app)
      << "\", \"start\": " << num(s.t0) << ", \"end\": " << num(s.t1) << "}"
      << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// For each span, the time its direct children cover.
std::vector<double> child_ms(const std::vector<Span>& all) {
  std::vector<double> child(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  return child;
}

// Self time per span kind: a span's duration minus what its children cover,
// summed by name (all opt.pass.<name> spans count as opt.pass).
std::map<std::string, double> layer_self_ms(const Spans& spans) {
  const auto& all = spans.all();
  const std::vector<double> child = child_ms(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::string layer = all[i].name;
    if (layer.rfind("opt.pass.", 0) == 0) layer = "opt.pass";
    out[layer] += (all[i].t1 - all[i].t0) - child[i];
  }
  return out;
}

// Smallest share of an app span's wall time its child spans cover.
double min_app_coverage(const Spans& spans) {
  const auto& all = spans.all();
  const std::vector<double> child = child_ms(all);
  double cov = 1.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name != "bench.app") continue;
    const double d = all[i].t1 - all[i].t0;
    if (d > 0) cov = std::min(cov, child[i] / d);
  }
  return cov;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <o2-seq|o0-seq|o2-t4> --seed N "
               "--seconds S --trace <0|1> [--spans FILE] [--git-sha SHA] "
               "[--source-id ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string wname, spans_path, git_sha = "unknown", source_id = "unknown";
  long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") wname = v;
    else if (k == "--seed") seed = std::strtol(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--spans") spans_path = v;
    else if (k == "--git-sha") git_sha = v;
    else if (k == "--source-id") source_id = v;
    else return usage();
  }
  if (argc % 2 != 1 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (wname == w.name) wl = &w;
  }
  if (wl == nullptr) return usage();
  const Workload& w = *wl;
  const bool traced = trace == 1;

  // Every option is pinned above; a SIT_* variable could still change what
  // is measured (SIT_COST is read lazily by the cost model), so refuse.
  std::vector<std::string> sit_env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SIT_", 4) == 0) sit_env.emplace_back(*e);
  }
  if (!sit_env.empty()) {
    std::fprintf(stderr, "bench_e2e: refusing to run with SIT_* set:");
    for (const auto& e : sit_env) std::fprintf(stderr, " %s", e.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  const auto& apps = sit::apps::all_apps();
  std::vector<std::size_t> order(apps.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  std::shuffle(order.begin(), order.end(), rng);

  const ExecOptions eo = exec_options(w, traced);
  std::printf("# e2ebench workload=%s seed=%ld seconds=%g trace=%d\n", w.name,
              seed, seconds, trace);
  std::printf("# host: cpus=%u build=%s git=%s source=%s cost-model=%s\n",
              std::thread::hardware_concurrency(), SIT_BENCH_BUILD_TYPE,
              git_sha.c_str(), source_id.c_str(),
              sit::obs::cost_model().source());
  std::printf("# pipeline requested: %s\n", pass_spec(w).c_str());
  std::printf("# options: engine=fused typed=on threads=%d batch=auto "
              "count_ops=%d runtime-trace=%s verify=off stall_ms=%d\n",
              w.threads, eo.count_ops ? 1 : 0,
              eo.trace == TraceMode::On ? "on" : "off", eo.stall_ms);
  std::printf("# loop: closed, 1 caller, apps back to back in seed order; "
              "%d set-ups per app (median), batches of >= %lld source items "
              "for %.2f s per app\n",
              kSetupReps, static_cast<long long>(w.batch_items),
              seconds / static_cast<double>(apps.size()));
  std::printf("# inputs: each app's own fixed-seed LCG source; --seed only "
              "permutes the app order\n");
  std::printf("# scaling: items/s and set-up times are scaled to a host where "
              "the probe (handwritten FIR over %lld items, on %d thread(s) "
              "around each batch, 1 around each set-up) runs at %.0f items/s; "
              "raw figures are printed too\n",
              static_cast<long long>(kProbeItems), w.threads, kProbeNominal);
  std::printf("# check: first %d outputs vs tree interpreter on the "
              "uncompiled graph, rel tol %g\n",
              kCheckItems, kTol);

  Spans spans(traced);
  const double base_rss = status_mb("VmRSS");
  bool windowed = true;
  std::vector<AppResult> results;
  std::vector<Rate> hand(std::size(kHandRefs));
  const double slice_ms = 1000.0 * seconds / static_cast<double>(apps.size());
  {
    Scope ws(spans, "bench.workload", -1);
    for (std::size_t idx : order) {
      // Each app gets its own peak-RSS window, so memory an earlier app
      // left behind (see mem.retained_mb) does not make the peak depend on
      // the seed's app order.
      release_free_memory();
      const double rss0 = status_mb("VmRSS");
      windowed &= reset_peak_rss();
      results.push_back(
          run_app(apps[idx], w, traced, slice_ms, spans, ws.id()));
      results.back().peak_mb = status_mb("VmHWM") - rss0;
      release_free_memory();
      const AppResult& r = results.back();
      std::printf("# app %-14s pipeline=%s\n#     engine: %s\n", r.name.c_str(),
                  r.pipeline.c_str(), r.engine.c_str());
      std::fflush(stdout);
    }
    if (traced) {
      Scope hs(spans, "bench.handwritten", ws.id());
      for (std::size_t i = 0; i < std::size(kHandRefs); ++i) {
        hand[i] = hand_rate(kHandRefs[i], 300.0, spans, hs.id());
      }
    }
  }

  // Resident memory still held after every app's objects are gone.
  const double retained_mb = status_mb("VmRSS") - base_rss;

  // Rows and aggregates in app-name order so the sums and geomeans do not
  // depend on the seed.
  std::sort(results.begin(), results.end(),
            [](const AppResult& a, const AppResult& b) {
              return a.name < b.name;
            });
  int failed = 0;
  std::vector<double> scaled, raw, host, traced_scaled, t4_vs_seq, ops, batches;
  std::vector<double> setup_s(kSetupReps, 0.0), raw_setup_s(kSetupReps, 0.0);
  double compile_ms = 0, construct_ms = 0, init_ms = 0, busy = 0, wait = 0;
  std::map<std::string, double> pass_ms;
  int actors = 0, edges = 0, natives = 0, combined = 0, freq = 0;
  int fused = 0, typed = 0, threaded = 0, rings = 0;
  std::int64_t instrs = 0, supers = 0;

  std::printf("\n%-14s %9s %8s %7s %13s %13s %9s %8s %8s %s\n", "app",
              "items/ss", "ss/batch", "batches", "items/s", "raw items/s",
              "setup_ms", "peak_mb", "max_rel", "check");
  for (const AppResult& r : results) {
    std::printf("%-14s %9lld %8d %7d %13.0f %13.0f %9.2f %8.1f %8.2g %s\n",
                r.name.c_str(), static_cast<long long>(r.items_per_steady),
                r.steadies_per_batch, r.rate.batches, r.rate.scaled,
                r.rate.raw, median(r.setup_scaled_ms), r.peak_mb,
                r.max_rel_err, r.ok ? "ok" : ("FAIL: " + r.error).c_str());
    if (!r.ok) {
      ++failed;
      continue;
    }
    scaled.push_back(r.rate.scaled);
    raw.push_back(r.rate.raw);
    host.push_back(r.rate.host);
    for (std::size_t i = 0; i < kSetupReps; ++i) {
      setup_s[i] += r.setup_scaled_ms[i] / 1000.0;
      raw_setup_s[i] += r.setup_ms[i] / 1000.0;
    }
    compile_ms += median(r.compile_ms);
    construct_ms += median(r.construct_ms);
    init_ms += median(r.init_ms);
    for (const auto& [name, v] : r.pass_ms) pass_ms[name] += median(v);
    actors += r.actors;
    edges += r.edges;
    natives += r.natives;
    combined += r.combined;
    freq += r.freq;
    fused += r.facts.fused;
    typed += r.facts.typed;
    threaded += r.facts.threaded;
    rings += r.facts.ring_edges;
    batches.push_back(r.facts.batch);
    instrs += r.facts.trace_instrs;
    supers += r.facts.super;
    if (traced) {
      traced_scaled.push_back(r.traced.scaled);
      ops.push_back(r.ops_per_item);
      busy += r.busy_ms;
      wait += r.wait_ms;
      if (r.seq.scaled > 0) t4_vs_seq.push_back(r.rate.scaled / r.seq.scaled);
    }
  }
  const int attempted = static_cast<int>(results.size());
  const double napps = static_cast<double>(attempted);
  const double fail_ratio = static_cast<double>(failed) / napps;
  const double items_per_s = geomean(scaled);

  std::printf("\nhost probe %.0f items/s (geomean of per-app medians); raw "
              "items_per_s %.0f, raw setup_s %.6g\n",
              geomean(host), geomean(raw), median(raw_setup_s));

  std::vector<Metric> metrics;
  auto add = [&](const std::string& n, double v, const char* u) {
    metrics.push_back({n, v, u});
  };
  if (!traced) {
    add("items_per_s", items_per_s, "1/s");
    add("setup_s", median(setup_s), "s");
    // Process RSS before the first app plus the largest single-app peak;
    // without per-app windows, the process high water.
    double peak = 0.0;
    for (const AppResult& r : results) peak = std::max(peak, r.peak_mb);
    add("peak_rss_mb", windowed ? base_rss + peak : status_mb("VmHWM"), "MB");
  } else {
    add("fail_ratio", fail_ratio, "ratio");
    add("host.probe_items_per_s", geomean(host), "1/s");
    add("host.raw_items_per_s", geomean(raw), "1/s");
    add("host.raw_setup_s", median(raw_setup_s), "s");
    add("opt.compile_ms", compile_ms, "ms");
    for (const char* p : {"validate", "analysis-gate", "const-fold",
                          "linear-combine", "frequency", "coarsen"}) {
      add(std::string("opt.pass.") + p + ".ms", pass_ms[p], "ms");
    }
    add("opt.actors_after", actors, "count");
    add("opt.edges_after", edges, "count");
    add("linear.combined", combined, "count");
    add("linear.freq_translated", freq, "count");
    add("linear.native_actors", natives, "count");
    add("sched.exec.construct_ms", construct_ms, "ms");
    add("sched.exec.init_ms", init_ms, "ms");
    add("runtime.fused.trace_instrs", static_cast<double>(instrs), "count");
    add("runtime.fused.super", static_cast<double>(supers), "count");
    add("runtime.fused.apps_ratio", fused / napps, "ratio");
    add("runtime.typed.apps_ratio", typed / napps, "ratio");
    add("runtime.ops_per_item", geomean(ops), "ops/item");
    add("sched.texec.threaded_ratio", threaded / napps, "ratio");
    add("sched.texec.ring_edges", rings, "count");
    add("sched.texec.batch_geomean", geomean(batches), "iters");
    add("sched.texec.worker_busy_ms", busy, "ms");
    add("sched.texec.worker_wait_ms", wait, "ms");
    add("sched.texec.utilization", busy + wait > 0 ? busy / (busy + wait) : 0.0,
        "ratio");
    add("sched.texec.vs_seq_geomean", geomean(t4_vs_seq), "ratio");
    for (const AppResult& r : results) {
      add("app." + r.name + ".items_per_s", r.rate.scaled, "1/s");
      add("app." + r.name + ".setup_ms", median(r.setup_scaled_ms), "ms");
    }
    for (std::size_t i = 0; i < std::size(kHandRefs); ++i) {
      add(std::string("ref.handwritten.") + kHandRefs[i].app + ".items_per_s",
          hand[i].scaled, "1/s");
    }
    const auto self = layer_self_ms(spans);
    for (const char* l :
         {"bench.workload", "bench.app", "bench.reference", "bench.setup",
          "bench.probe", "bench.check", "bench.untraced", "bench.seq_baseline",
          "bench.handwritten", "opt.compile", "opt.pass",
          "sched.exec.construct", "sched.exec.init", "runtime.first_steady",
          "runtime.steady"}) {
      const auto it = self.find(l);
      add(std::string("self_ms.") + l, it == self.end() ? 0.0 : it->second,
          "ms");
    }
    add("mem.retained_mb", retained_mb, "MB");
    add("trace.app_coverage", min_app_coverage(spans), "ratio");
    add("trace.items_per_s", geomean(traced_scaled), "1/s");
    add("trace.untraced_items_per_s", items_per_s, "1/s");
    add("trace.overhead",
        items_per_s > 0 ? 1.0 - geomean(traced_scaled) / items_per_s : 0.0,
        "ratio");

    if (w.threads > 1) {
      std::printf("\n%-14s %14s %14s %8s   (threaded vs best sequential, "
                  "not gated)\n",
                  "app", "o2-t4 items/s", "o2-seq items/s", "ratio");
      for (const AppResult& r : results) {
        if (r.seq.scaled > 0) {
          std::printf("%-14s %14.0f %14.0f %8.3f\n", r.name.c_str(),
                      r.rate.scaled, r.seq.scaled,
                      r.rate.scaled / r.seq.scaled);
        }
      }
    }
    std::printf("\n%-14s %14s %14s %8s\n", "reference", "engine items/s",
                "hand items/s", "ratio");
    for (std::size_t i = 0; i < std::size(kHandRefs); ++i) {
      double eng = 0;
      for (const AppResult& r : results) {
        if (r.name == kHandRefs[i].app) eng = r.rate.scaled;
      }
      std::printf("%-14s %14.0f %14.0f %8.3f\n", kHandRefs[i].app, eng,
                  hand[i].scaled,
                  hand[i].scaled > 0 ? eng / hand[i].scaled : 0.0);
    }
    if (!spans_path.empty() && !write_spans(spans_path, spans)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-40s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("app runs: %d attempted, %d failed (fail_ratio %g)\n",
              attempted, failed, fail_ratio);

  std::string js = "{\"correct\": ";
  js += failed == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted);
  js += ", \"failed\": " + std::to_string(failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js += (i ? ", " : "") + std::string("\"") + metrics[i].name +
          "\": {\"value\": " + num(metrics[i].value) + ", \"unit\": \"" +
          metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return 0;
}
