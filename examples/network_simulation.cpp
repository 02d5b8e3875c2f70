// Networked deployment walkthrough: the whole provider and a small audience
// running over the simulated lossy Internet — every ticket, key, and frame
// crosses the wire as a datagram with latency, jitter, and loss, and the
// clients' retransmission logic keeps the protocols reliable.
//
//   ./network_simulation [loss%]   (default 5)
#include <cstdio>
#include <cstdlib>

#include "analysis/stats.h"
#include "net/deployment.h"

using namespace p2pdrm;

int main(int argc, char** argv) {
  const double loss = (argc > 1 ? std::atof(argv[1]) : 5.0) / 100.0;

  net::DeploymentConfig cfg;
  cfg.seed = 20260707;
  cfg.default_link.latency.floor = 15 * util::kMillisecond;
  cfg.default_link.latency.median = 60 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.5;
  cfg.default_link.loss = loss;
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 8 * util::kMillisecond;
  cfg.request_timeout = 500 * util::kMillisecond;
  cfg.max_retries = 8;

  net::Deployment d(cfg);
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "world-cup-final", region);
  d.start_channel_server(1);
  std::printf("deployment up: per-link loss %.0f%%, RTT median ~%lldms\n",
              loss * 100,
              static_cast<long long>(cfg.default_link.latency.median /
                                     util::kMillisecond));

  constexpr int kViewers = 12;
  std::vector<net::AsyncClient*> viewers;
  int done = 0;
  for (int i = 0; i < kViewers; ++i) {
    const std::string email = "fan" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    viewers.push_back(&d.add_client(email, "pw", region));
  }

  // Everyone logs in and tunes in concurrently; the simulation interleaves
  // all the protocol exchanges.
  for (net::AsyncClient* v : viewers) {
    v->login([&d, v, &done](core::DrmError err) {
      if (err != core::DrmError::kOk) {
        std::printf("  %s login failed: %s\n", v->config().email.c_str(),
                    to_string(err).data());
        ++done;
        return;
      }
      v->switch_channel(1, [&d, v, &done](core::DrmError err2) {
        ++done;
        if (err2 == core::DrmError::kOk) {
          d.announce(*v);  // immediately a parent candidate
        } else {
          std::printf("  %s switch failed: %s\n", v->config().email.c_str(),
                      to_string(err2).data());
        }
      });
    });
  }
  while (done < kViewers && d.sim().step()) {
  }
  std::printf("all %d viewers joined at t=%s\n", done,
              util::format_time(d.sim().now()).c_str());

  // One minute of the match: 2 frames/second pushed through the tree,
  // crossing a key rotation along the way.
  const util::SimTime until = d.sim().now() + util::kMinute;
  std::uint64_t frames = 0;
  while (d.sim().now() < until) {
    d.broadcast(1, util::bytes_of("frame " + std::to_string(frames)));
    ++frames;
    d.run_for(500 * util::kMillisecond);
  }
  d.run_for(5 * util::kSecond);  // drain stragglers

  std::printf("\n%-22s %10s %12s %10s\n", "viewer", "decrypted", "undecrypt.",
              "p50 JOIN");
  for (net::AsyncClient* v : viewers) {
    std::vector<double> join_lat;
    for (const core::LatencySample& s : v->feedback_log()) {
      if (s.round == core::Round::kJoin && s.success) {
        join_lat.push_back(util::to_seconds(s.latency));
      }
    }
    std::printf("%-22s %7llu/%llu %12llu %9.3fs\n", v->config().email.c_str(),
                static_cast<unsigned long long>(v->content_decrypted()),
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(v->content_undecryptable()),
                analysis::quantile(join_lat, 0.5));
  }

  std::printf("\nnetwork totals: %llu datagrams sent, %llu delivered, %llu "
              "lost/undeliverable\n",
              static_cast<unsigned long long>(d.network().packets_sent()),
              static_cast<unsigned long long>(d.network().packets_delivered()),
              static_cast<unsigned long long>(d.network().packets_dropped()));
  std::printf("note: lost *content* datagrams are gone for good (live video "
              "tolerates gaps);\nlost *protocol* datagrams were retransmitted; "
              "lost *key* blobs would need the\nmulti-parent redundancy shown in "
              "bench/ablation_key_lead_time.\n");
  return 0;
}
