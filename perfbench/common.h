// Shared vocabulary of the perfbench program: run options, the result record
// every workload fills, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/critical_path.h"
#include "analysis/stats.h"

namespace perfbench {

using p2pdrm::analysis::median;
using p2pdrm::analysis::quantile;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds every figure the run
/// measured (end-to-end and, on traced runs, per-layer); run.py picks the
/// ones BENCHMARK.json names. `checks` are the correctness verdicts.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& what, bool ok) { checks.emplace_back(what, ok); }
  bool correct() const {
    for (const auto& [what, ok] : checks) {
      if (!ok) return false;
    }
    return failed == 0 && attempted > 0;
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Tail quantile that shrugs off a single scheduler hiccup: samples are
/// (time, value) pairs, grouped into `width`-long windows from `start`; the
/// result is the median over windows of each window's q-quantile.
double windowed_quantile(const std::vector<std::pair<std::int64_t, double>>& samples,
                         std::int64_t start, std::int64_t width, double q);
double peak_rss_mb();
/// User + system CPU seconds the process has used so far. Unlike wall
/// time, it excludes time the host steals from the machine.
double process_cpu_s();

/// Run `fn` in batches for about `budget_s` seconds and return the median
/// per-call time in microseconds across batches.
template <typename Fn>
double time_per_call_us(Fn&& fn, double budget_s, int batch) {
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  while (per_call.size() < 5 || seconds_since(start) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    per_call.push_back(seconds_since(t0) * 1e6 / batch);
    if (per_call.size() >= 2000) break;
  }
  return median(per_call);
}

Result run_live_zap(const Options& opt);
Result run_live_broadcast(const Options& opt);
Result run_macro_day(const Options& opt);

/// Direct timed calls into the crypto, core and store layers at the
/// workloads' sizes (traced runs only).
void measure_layers(std::uint64_t seed, Result& out);

/// Mean network/queue/service/retransmission/client time per traced round
/// (analysis::analyze_critical_path), as split.<round>.<part>_us.
void critical_path_metrics(const p2pdrm::analysis::CriticalPathReport& report,
                           Result& out);

}  // namespace perfbench
