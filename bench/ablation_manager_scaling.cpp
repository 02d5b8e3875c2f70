// Ablation: manager farm size (§V's stateless-farm claim).
//
// Because User/Channel Manager requests are atomic and stateless, a
// logical manager can be a farm behind one address. This bench fixes the
// workload (paper-scale week, heavier RSA cost so a single box saturates)
// and sweeps the farm size: latency should collapse to the flat,
// load-independent profile once capacity clears the peak — and degrade
// into load-tracking queueing when it does not.
#include <cmath>
#include <cstdio>

#include "sim_run.h"

using namespace p2pdrm;

int main(int argc, char** argv) {
  bench::SimRun run("ablation_manager_scaling", argc, argv);
  bench::print_header("Ablation — User Manager farm size under peak load");

  std::printf("%-6s %12s %12s %12s %12s %10s %12s\n", "farm", "p50 LOGIN2",
              "p95 LOGIN2", "p99 LOGIN2", "mean util", "corr(r)", "verdict");

  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  j.begin_array();
  for (const std::size_t farm : {1u, 2u, 4u, 8u}) {
    sim::MacroSimConfig cfg = bench::paper_config();
    cfg.days = 3;  // enough diurnal cycles for the correlation
    cfg.user_manager_servers = farm;
    // 2048-bit-class signing plus DB work: one server cannot clear the peak.
    cfg.costs.login2 = 60 * util::kMillisecond;
    cfg = run.finalize(cfg);

    const sim::MacroSimResult result = sim::run_macro_sim(cfg);
    const auto& trace = result.round(core::Round::kLogin2);
    const auto corr = analysis::pearson(trace.hourly_median(),
                                        result.hourly_concurrency);
    const double r = corr.value_or(0.0);
    std::printf("%-6zu %11.3fs %11.3fs %11.3fs %12.4f %+10.3f %12s\n", farm,
                trace.peak.quantile(0.5), trace.peak.quantile(0.95),
                trace.peak.quantile(0.99), result.um_utilization, r,
                std::abs(r) < 0.3 ? "flat" : "load-bound");

    j.begin_object();
    j.kv("farm", static_cast<std::uint64_t>(farm));
    j.kv("p50_login2_seconds", trace.peak.quantile(0.5));
    j.kv("p95_login2_seconds", trace.peak.quantile(0.95));
    j.kv("p99_login2_seconds", trace.peak.quantile(0.99));
    j.kv("um_utilization", result.um_utilization);
    j.kv("pearson_r", r);
    j.kv("verdict", std::abs(r) < 0.3 ? "flat" : "load-bound");
    j.end_object();
  }
  j.end_array();
  run.finish_artifact();

  std::printf("\nexpected shape: undersized farms queue at the evening peak "
              "(latency tracks load,\nlarge r); once the farm clears peak "
              "demand, latency flattens and r drops toward 0 —\nthe regime the "
              "paper's production deployment operated in with 2 UMs.\n");
  return 0;
}
