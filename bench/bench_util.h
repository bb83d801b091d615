#pragma once
// Shared helpers for the figure-reproduction benchmark binaries.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "apps/apps.h"
#include "machine/machine.h"
#include "obs/costmodel.h"
#include "obs/metrics.h"
#include "parallel/strategies.h"
#include "sched/exec.h"

namespace sit::bench {

// ---- machine-readable results -----------------------------------------------
//
// Each bench binary may drop a BENCH_<name>.json next to its stdout tables so
// CI and the experiment scripts can diff numbers without scraping text.  The
// format is deliberately flat: one record per measured configuration, all
// metric values doubles.

struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Provenance stamped into every BENCH_*.json so the perf trajectory stays
// attributable across PRs: which commit, and (from the measured executor's
// metrics snapshot) which engine, how many worker threads and which pass
// pipeline actually ran.
inline std::string bench_git_sha() {
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  std::array<char, 64> buf{};
  std::string sha = "unknown";
  if (FILE* p = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    if (fgets(buf.data(), static_cast<int>(buf.size()), p) != nullptr) {
      std::string s(buf.data());
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (!s.empty()) sha = s;
    }
    pclose(p);
  }
  return sha;
}

// Host metadata: results are hardware-dependent, so BENCH_*.json records
// where they were measured.
inline std::string bench_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  std::array<char, 256> buf{};
  if (gethostname(buf.data(), buf.size() - 1) == 0 && buf[0] != '\0') {
    return buf.data();
  }
#endif
  if (const char* h = std::getenv("HOSTNAME")) return h;
  return "unknown";
}

// Monotonic run timestamp (steady-clock ns): orders runs from one boot
// unambiguously even if the wall clock steps.
inline std::int64_t bench_run_mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// `metrics`, when non-null, embeds a full obs::MetricsSnapshot (per-actor /
// per-edge / per-worker tables) under a "metrics" key, giving the perf
// trajectory per-actor attribution instead of just end-to-end rates.  It is
// also the only source of the header's "engine" / "threads" / "opt" stamps
// (engine, worker threads and pass pipeline of the run it describes; an
// empty pipeline is a raw graph with no passes).  Without a snapshot those
// fields are left out rather than guessed from the environment.
//
// `max_threads`, when > 0, is the largest worker count the binary actually
// measured (scaling sweeps measure several counts in one run, so the
// environment's SIT_THREADS is not the right oversubscription signal).  A
// run whose measured thread count exceeds the host cpu count measures
// scheduler contention, not the runtime: the JSON is stamped
// degraded / non-authoritative so trajectory tooling and the CI gate can
// refuse the numbers, and the operator is warned directly.
inline bool write_bench_json(const std::string& path, const std::string& bench,
                             const std::vector<BenchRecord>& records,
                             const obs::MetricsSnapshot* metrics = nullptr,
                             int max_threads = 0) {
  std::ofstream f(path);
  if (!f) return false;
  int measured = max_threads;
  if (measured <= 0) measured = metrics != nullptr ? metrics->threads : 1;
  const unsigned cpus = std::thread::hardware_concurrency();
  const bool degraded = cpus > 0 && measured > static_cast<int>(cpus);
  if (degraded) {
    std::fprintf(stderr,
                 "bench: warning: %d worker threads on a %u-cpu host; "
                 "results stamped \"degraded\" (authoritative: false) in %s\n",
                 measured, cpus, path.c_str());
  }
  // Which cost model drove partitioning/selection during the run: numbers
  // measured under a calibrated profile are not comparable to static-model
  // runs, so the trajectory must record the model (and its profile) too.
  const obs::CostModel& cmodel = obs::cost_model();
  f << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n"
    << "  \"git_sha\": \"" << json_escape(bench_git_sha()) << "\",\n";
  if (metrics != nullptr) {
    f << "  \"engine\": \"" << json_escape(metrics->engine) << "\",\n"
      << "  \"threads\": " << metrics->threads << ",\n"
      << "  \"opt\": {\"pipeline\": \"" << json_escape(metrics->pipeline)
      << "\"},\n";
  }
  f << "  \"cost_model\": {\"source\": \"" << cmodel.source()
    << "\", \"profile\": \"" << json_escape(cmodel.profile_path()) << "\"},\n"
    << "  \"host\": {\"hostname\": \"" << json_escape(bench_hostname())
    << "\", \"cpus\": " << cpus << ", \"max_threads_measured\": " << measured
    << ", \"degraded\": " << (degraded ? "true" : "false")
    << ", \"authoritative\": " << (degraded ? "false" : "true") << "},\n"
    << "  \"run_mono_ns\": " << bench_run_mono_ns() << ",\n"
    << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    f << "    {\"name\": \"" << json_escape(records[i].name) << "\"";
    for (const auto& [k, v] : records[i].metrics) {
      f << ", \"" << json_escape(k) << "\": " << v;
    }
    f << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  f << "  ]";
  if (metrics != nullptr) f << ",\n  \"metrics\": " << metrics->to_json();
  f << "\n}\n";
  return static_cast<bool>(f);
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

inline std::vector<std::string> parallel_suite_names() {
  std::vector<std::string> names;
  for (const auto& a : sit::apps::all_apps()) {
    if (a.parallel_suite) names.push_back(a.name);
  }
  return names;
}

inline std::vector<std::string> linear_suite_names() {
  std::vector<std::string> names;
  for (const auto& a : sit::apps::all_apps()) {
    if (a.linear_suite) names.push_back(a.name);
  }
  return names;
}

inline void rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace sit::bench
