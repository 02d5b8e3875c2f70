// Ablation: packet loss vs protocol completion (networked deployment).
//
// The paper's protocols are two-round request/response exchanges over an
// unreliable network; the client's timeout/retransmit loop is what makes
// them robust. This bench runs the REAL protocol stack (full crypto, real
// managers) over the simulated lossy network and sweeps the loss rate:
// completion rate, end-to-end login+switch+join time, and the retry bill.
#include <cstdio>
#include <optional>

#include "analysis/stats.h"
#include "net/deployment.h"
#include "sim_run.h"

using namespace p2pdrm;

namespace {

struct Outcome {
  bool ok = false;
  double seconds = 0;
};

Outcome run_one_viewer(net::Deployment& d, net::AsyncClient& client) {
  const util::SimTime started = d.sim().now();
  Outcome out;
  out.ok = d.run_op(client, net::login_and_switch(client, 1), 5 * util::kMinute) ==
           core::DrmError::kOk;
  out.seconds = util::to_seconds(d.sim().now() - started);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("ablation_loss_resilience", argc, argv);
  std::printf("\n=== Ablation — packet loss vs protocol completion (real stack, "
              "simulated network) ===\n");
  std::printf("%-8s %10s %12s %12s %14s %14s\n", "loss", "viewers", "completed",
              "p50 time", "p95 time", "retransmits");

  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  j.begin_array();
  for (const double loss : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    net::DeploymentConfig cfg;
    cfg.seed = run.u64_flag("seed", 7);
    cfg.default_link.latency.floor = 10 * util::kMillisecond;
    cfg.default_link.latency.median = 40 * util::kMillisecond;
    cfg.default_link.latency.sigma = 0.4;
    cfg.default_link.loss = loss;
    cfg.processing.light = 1 * util::kMillisecond;
    cfg.processing.heavy = 8 * util::kMillisecond;
    cfg.request_timeout = 400 * util::kMillisecond;
    cfg.max_retries = 10;

    net::Deployment d(cfg);
    const geo::RegionId region = d.geo().region_at(0);
    d.add_regional_channel(1, "event", region);
    d.start_channel_server(1);

    const int viewers = 40;
    int completed = 0;
    std::vector<double> times;
    for (int i = 0; i < viewers; ++i) {
      const std::string email = "v" + std::to_string(i) + "@example.com";
      d.add_user(email, "pw");
      net::AsyncClient& c = d.add_client(email, "pw", region);
      const Outcome out = run_one_viewer(d, c);
      if (out.ok) {
        ++completed;
        times.push_back(out.seconds);
        d.announce(c);  // grow the overlay as in a real flash crowd
      }
    }

    // Retransmissions = sends beyond the minimum request+response pairs.
    const auto sent = d.network().packets_sent();
    const auto delivered = d.network().packets_delivered();
    std::printf("%-8.0f%% %9d %11d%% %11.3fs %13.3fs %10llu drops\n", loss * 100,
                viewers, completed * 100 / viewers, analysis::quantile(times, 0.5),
                analysis::quantile(times, 0.95),
                static_cast<unsigned long long>(sent - delivered));
    j.begin_object();
    j.kv("loss", loss);
    j.kv("viewers", viewers);
    j.kv("completed", completed);
    j.kv("p50_seconds", analysis::quantile(times, 0.5));
    j.kv("p95_seconds", analysis::quantile(times, 0.95));
    j.kv("dropped_packets", static_cast<std::uint64_t>(sent - delivered));
    j.end_object();
  }
  j.end_array();
  run.finish_artifact();

  std::printf("\nexpected shape: completion stays at 100%% well past 10%% loss — "
              "each round is\nidempotent and retried — while tail latency grows "
              "with the retransmission count.\n");
  return 0;
}
