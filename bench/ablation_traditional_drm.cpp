// Ablation: traditional (per-file-license) DRM vs the paper's ticket DRM
// on a linearized live channel (§I's motivating claim).
//
// Traditional DRM discretizes content into files and issues a playback
// license per file at playback time. On a linear channel, every program
// boundary is a new "file": at each boundary, EVERY current viewer hits the
// license server within the player's prefetch window — synchronized spikes.
// The paper's design issues a Channel Ticket at switch time and renews it
// on a per-viewer phase (each client renews ticket_lifetime after its own
// join), so server load is uniform; content keys travel peer-to-peer and
// cost the servers nothing.
//
// Both arms get the same server farm and the same per-request cost, so the
// difference isolated is purely the arrival pattern the two designs induce.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/stats.h"
#include "sim/latency.h"
#include "sim_run.h"

using namespace p2pdrm;

namespace {

struct ArmResult {
  double p50, p95, p99, max;
  double peak_backlog_s;
};

ArmResult run_arm(const std::vector<util::SimTime>& arrivals, util::SimTime service,
                  std::size_t servers, crypto::SecureRandom& rng) {
  std::vector<util::SimTime> sorted = arrivals;
  std::sort(sorted.begin(), sorted.end());
  sim::QueueStation station(servers);
  std::vector<double> latencies;
  latencies.reserve(sorted.size());
  double peak_backlog = 0;
  for (util::SimTime t : sorted) {
    const double jitter = 0.85 + 0.3 * rng.uniform_real();
    const util::SimTime svc =
        std::max<util::SimTime>(1, static_cast<util::SimTime>(
                                       static_cast<double>(service) * jitter));
    const util::SimTime depart = station.submit(t, svc);
    const double wait = util::to_seconds(depart - t);
    latencies.push_back(wait);
    peak_backlog = std::max(peak_backlog, wait);
  }
  std::vector<double> copy = latencies;
  return ArmResult{analysis::quantile(copy, 0.50), analysis::quantile(copy, 0.95),
                   analysis::quantile(copy, 0.99),
                   *std::max_element(latencies.begin(), latencies.end()),
                   peak_backlog};
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("ablation_traditional_drm", argc, argv);
  bench::print_header("Ablation — traditional per-file DRM vs ticket DRM");

  const double scale = bench::scale_factor();
  const std::size_t viewers =
      static_cast<std::size_t>(run.num_flag("peak", 25000 * scale));
  const int hours = 3;
  const util::SimTime program_len = 30 * util::kMinute;   // program boundary
  const util::SimTime prefetch_window = 30 * util::kSecond;
  const util::SimTime ct_lifetime = 10 * util::kMinute;   // our renewal period
  const util::SimTime service = 8 * util::kMillisecond;   // license/ticket issue
  const std::size_t servers = 4;
  crypto::SecureRandom rng(run.u64_flag("seed", 99));

  std::printf("# %zu concurrent viewers, %dh of a linear channel, programs every "
              "%lld min\n# identical farm both arms: %zu servers, %.0fms per "
              "request\n",
              viewers, hours, static_cast<long long>(program_len / util::kMinute),
              servers, util::to_seconds(service) * 1000);

  // Arm A — traditional: at every program boundary, all viewers fetch a
  // license within the prefetch window.
  std::vector<util::SimTime> traditional;
  for (int b = 0; b <= hours * 2; ++b) {
    const util::SimTime boundary = static_cast<util::SimTime>(b) * program_len;
    for (std::size_t v = 0; v < viewers; ++v) {
      traditional.push_back(boundary + static_cast<util::SimTime>(
                                           rng.uniform_real() *
                                           static_cast<double>(prefetch_window)));
    }
  }

  // Arm B — ticket DRM: each viewer renews its Channel Ticket every
  // ct_lifetime starting from its own (uniform) phase.
  std::vector<util::SimTime> ticketed;
  const util::SimTime horizon = static_cast<util::SimTime>(hours) * util::kHour;
  for (std::size_t v = 0; v < viewers; ++v) {
    const util::SimTime phase = static_cast<util::SimTime>(
        rng.uniform_real() * static_cast<double>(ct_lifetime));
    for (util::SimTime t = phase; t < horizon; t += ct_lifetime) {
      ticketed.push_back(t);
    }
  }

  const ArmResult trad = run_arm(traditional, service, servers, rng);
  const ArmResult tick = run_arm(ticketed, service, servers, rng);

  std::printf("\n%-28s %10s %10s %10s %10s\n", "arm (requests)", "p50", "p95",
              "p99", "max");
  std::printf("%-28s %9.3fs %9.3fs %9.3fs %9.3fs\n",
              ("traditional (" + std::to_string(traditional.size()) + ")").c_str(),
              trad.p50, trad.p95, trad.p99, trad.max);
  std::printf("%-28s %9.3fs %9.3fs %9.3fs %9.3fs\n",
              ("ticket DRM  (" + std::to_string(ticketed.size()) + ")").c_str(),
              tick.p50, tick.p95, tick.p99, tick.max);

  std::printf("\np99 ratio traditional/ticket: %.1fx\n",
              tick.p99 > 0 ? trad.p99 / tick.p99 : 0.0);

  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  const auto emit_arm = [&j](const char* name, const ArmResult& a,
                             std::size_t requests) {
    j.key(name).begin_object();
    j.kv("requests", static_cast<std::uint64_t>(requests));
    j.kv("p50_seconds", a.p50).kv("p95_seconds", a.p95);
    j.kv("p99_seconds", a.p99).kv("max_seconds", a.max);
    j.end_object();
  };
  j.begin_object();
  emit_arm("traditional", trad, traditional.size());
  emit_arm("ticket_drm", tick, ticketed.size());
  j.kv("p99_ratio", tick.p99 > 0 ? trad.p99 / tick.p99 : 0.0);
  j.end_object();
  run.finish_artifact();
  std::printf("expected shape: traditional p99 explodes at every program "
              "boundary;\nticket DRM stays near the bare service time because "
              "renewals are phase-staggered\nand content keys never touch the "
              "servers (they flow peer-to-peer).\n");
  return 0;
}
