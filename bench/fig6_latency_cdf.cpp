// Reproduces Fig. 6(a,b,c): CDF of protocol-round latencies during peak
// hours (18:00-24:00) vs. off-peak hours (00:00-18:00).
//
// The paper plots the 0.5..1.0 probability range over 0..5 seconds and
// finds the two curves "virtually identical" for every protocol — load does
// not shift the latency distribution. We print the same probability grid
// and report the maximum peak-vs-off-peak divergence per round.
#include <array>
#include <cmath>
#include <cstdio>

#include "sim_run.h"

using namespace p2pdrm;

namespace {

double print_cdf_pair(const sim::MacroSimResult& result, core::Round r) {
  // Read the paper's split from the run's metrics registry: bucketed
  // histograms over every recorded round, not a sampling reservoir.
  const obs::LatencyHistogram* peak_hist =
      result.registry->find_histogram(sim::split_histogram_name(r, true));
  const obs::LatencyHistogram* off_hist =
      result.registry->find_histogram(sim::split_histogram_name(r, false));
  std::printf("\n--- %s: latency CDF, peak (18-24h) vs off-peak (0-18h) ---\n",
              to_string(r).data());
  std::printf("%-6s %12s %12s\n", "CDF", "peak(s)", "off-peak(s)");
  double max_gap = 0;
  for (double q = 0.50; q <= 0.995; q += 0.025) {
    const double peak = peak_hist->quantile(q) * 1e-6;
    const double off = off_hist->quantile(q) * 1e-6;
    max_gap = std::max(max_gap, std::abs(peak - off));
    std::printf("%-6.3f %12.3f %12.3f\n", q, peak, off);
  }
  std::printf("max |peak - offpeak| gap over plotted range: %.3fs  "
              "(paper: curves virtually identical)\n", max_gap);
  std::printf("samples: peak=%llu off-peak=%llu\n",
              static_cast<unsigned long long>(peak_hist->count()),
              static_cast<unsigned long long>(off_hist->count()));
  return max_gap;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("fig6_latency_cdf", argc, argv);
  bench::print_header("Fig. 6 — latency CDFs, peak vs off-peak (1 week)");
  sim::MacroSimConfig cfg = bench::paper_config();

  bench::MacroObs obs;
  obs.attach(cfg, /*trace=*/!run.trace_out().empty());
  cfg.key_rotation.enabled = true;
  cfg = run.finalize(cfg);

  const sim::MacroSimResult result = sim::run_macro_sim(cfg);
  bench::print_run_summary(result);

  std::array<double, core::kNumRounds> gaps{};
  // Fig. 6(a): login, (b): channel switching, (c): join.
  for (const core::Round r : core::kAllRounds) {
    gaps[static_cast<std::size_t>(r)] = print_cdf_pair(result, r);
  }

  bench::print_obs_reports(obs, !run.trace_out().empty(), run.trace_out(),
                           run.timeseries_out());

  run.begin_artifact(cfg);
  obs::JsonWriter& j = run.json();
  j.begin_object();
  j.kv("sessions", result.sessions);
  j.kv("events", result.events);
  j.key("max_peak_offpeak_gap_seconds").begin_object();
  for (const core::Round r : core::kAllRounds) {
    j.kv(std::string(to_string(r)), gaps[static_cast<std::size_t>(r)]);
  }
  j.end_object();
  j.end_object();
  run.set_runtime(result.runtime);
  run.maybe_write_prom(*result.registry);
  run.finish_artifact();
  return 0;
}
