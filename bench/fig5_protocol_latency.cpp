// Reproduces Fig. 5(a,b,c): median latency of the LOGIN1/LOGIN2,
// SWITCH1/SWITCH2, and JOIN protocol rounds across a simulated week,
// plotted against the total number of concurrent users — plus the in-text
// Pearson correlation coefficients (paper: -0.03..0.08 for login/switch,
// 0.13 for join).
//
// Expected shape: the concurrency curve swings by an order of magnitude
// between pre-dawn trough and evening peak while every median latency stays
// flat — the paper's stateless-manager scalability claim.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim_run.h"

using namespace p2pdrm;

namespace {

/// Per-hour median latency in seconds, read from the run's metrics registry
/// (bucketed histograms over the full population — the reservoirs they
/// replaced sampled 3000 per hour). Hours with no samples report 0.
std::vector<double> hourly_median(const sim::MacroSimResult& result,
                                  core::Round r) {
  std::vector<double> out;
  out.reserve(result.hourly_concurrency.size());
  for (std::size_t h = 0; h < result.hourly_concurrency.size(); ++h) {
    const obs::LatencyHistogram* hist =
        result.registry->find_histogram(sim::hourly_histogram_name(r, h));
    out.push_back(hist == nullptr || hist->empty() ? 0.0 : hist->p50() * 1e-6);
  }
  return out;
}

void print_series(const sim::MacroSimResult& result, core::Round a,
                  core::Round b, bool has_b, const char* fig) {
  std::printf("\n--- Fig. 5%s: hour-of-week series ---\n", fig);
  std::printf("%-6s %-5s %12s %14s", "day", "hour", "concurrent",
              to_string(a).data());
  if (has_b) std::printf(" %14s", to_string(b).data());
  std::printf("\n");
  const auto ma = hourly_median(result, a);
  const auto mb = hourly_median(result, b);
  for (std::size_t h = 0; h < result.hourly_concurrency.size(); ++h) {
    std::printf("d%-5zu %-5zu %12.0f %12.3fs", h / 24, h % 24,
                result.hourly_concurrency[h], ma[h]);
    if (has_b) std::printf(" %12.3fs", mb[h]);
    std::printf("\n");
  }
}

double print_correlation(const sim::MacroSimResult& result, core::Round r,
                         double paper_lo, double paper_hi) {
  const auto corr =
      analysis::pearson(hourly_median(result, r), result.hourly_concurrency);
  std::printf("%-8s  r = %+.3f   (paper: %+0.2f .. %+0.2f)  %s\n",
              to_string(r).data(), corr.value_or(0.0), paper_lo, paper_hi,
              (corr && *corr >= paper_lo - 0.15 && *corr <= paper_hi + 0.15)
                  ? "within band"
                  : "OUT OF BAND");
  return corr.value_or(0.0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("fig5_protocol_latency", argc, argv);
  bench::print_header(
      "Fig. 5 — median protocol latency vs. concurrent users (1 week)");

  sim::MacroSimConfig cfg = bench::paper_config();
  // Observability riders: SLO/load-correlation monitor and time-series
  // scraping always; span capture only when a trace sink is requested
  // (Fig 5's latency numbers are identical either way — the hooks draw no
  // randomness).
  bench::MacroObs obs;
  obs.attach(cfg, /*trace=*/!run.trace_out().empty());
  cfg.key_rotation.enabled = true;
  cfg = run.finalize(cfg);
  std::printf("# days=%d peak_concurrent=%.0f UMs=%zu CMs=%zu seed=%llu "
              "shards=%zu threads=%zu\n",
              cfg.days, cfg.peak_concurrent, cfg.user_manager_servers,
              cfg.channel_manager_servers,
              static_cast<unsigned long long>(cfg.seed), cfg.shards, cfg.threads);

  const sim::MacroSimResult result = sim::run_macro_sim(cfg);
  bench::print_run_summary(result);

  print_series(result, core::Round::kLogin1, core::Round::kLogin2, true,
               "(a) login");
  print_series(result, core::Round::kSwitch1, core::Round::kSwitch2, true,
               "(b) channel switching");
  print_series(result, core::Round::kJoin, core::Round::kJoin, false,
               "(c) join");

  std::printf("\n--- In-text: Pearson correlation, median latency vs #users ---\n");
  const double r_login1 =
      print_correlation(result, core::Round::kLogin1, -0.03, 0.08);
  const double r_login2 =
      print_correlation(result, core::Round::kLogin2, -0.03, 0.08);
  const double r_switch1 =
      print_correlation(result, core::Round::kSwitch1, -0.03, 0.08);
  const double r_switch2 =
      print_correlation(result, core::Round::kSwitch2, -0.03, 0.08);
  const double r_join =
      print_correlation(result, core::Round::kJoin, 0.13, 0.13);

  // Headline check: latency flat while concurrency swings.
  const double max_c = *std::max_element(result.hourly_concurrency.begin(),
                                         result.hourly_concurrency.end());
  const double min_c = *std::min_element(result.hourly_concurrency.begin(),
                                         result.hourly_concurrency.end());
  std::printf("\nconcurrency swing: %.0fx (%.0f .. %.0f)\n",
              min_c > 0 ? max_c / min_c : 0.0, min_c, max_c);

  bench::print_obs_reports(obs, !run.trace_out().empty(), run.trace_out(),
                           run.timeseries_out());

  run.begin_artifact(cfg);
  obs::JsonWriter& j = run.json();
  j.begin_object();
  j.kv("sessions", result.sessions);
  j.kv("channel_switches", result.channel_switches);
  j.kv("events", result.events);
  j.kv("peak_observed_concurrency", result.peak_observed_concurrency);
  j.kv("um_utilization", result.um_utilization);
  j.kv("cm_utilization", result.cm_utilization);
  j.kv("concurrency_swing", min_c > 0 ? max_c / min_c : 0.0);
  j.key("pearson_r").begin_object();
  j.kv("LOGIN1", r_login1).kv("LOGIN2", r_login2);
  j.kv("SWITCH1", r_switch1).kv("SWITCH2", r_switch2);
  j.kv("JOIN", r_join);
  j.end_object();
  j.end_object();
  run.set_runtime(result.runtime);
  run.maybe_write_prom(*result.registry);
  run.finish_artifact();
  return 0;
}
