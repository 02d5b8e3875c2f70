// Cross-validation of the macro model on the REAL protocol stack — actual
// RSA/AES exchanges through the real managers — in two modes:
//
//   --transport=thread (default): the deployment runs on the multithreaded
//     live transport (one event loop per node group, monotonic-clock
//     timers) and N driver threads push real concurrent sessions through
//     the full five-round protocol (LOGIN1/LOGIN2/SWITCH1/SWITCH2/JOIN).
//     Reports genuine wall-clock req/s and latency percentiles and writes
//     a BENCH_real_stack.json artifact. Exit code is nonzero if any
//     protocol round failed — this is the live-stack correctness gate.
//
//   --transport=sim: the historical deterministic validation — a session
//     population driven by a compressed diurnal curve (arrival rate
//     swinging 6x over two simulated hours) logs in, switches, joins, and
//     auto-renews; per-bucket median latencies are correlated with
//     concurrency, exactly like bench/fig5_protocol_latency does for the
//     calibrated model (expect r ~ 0: flat latency under the load swing).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.h"
#include "bench_common.h"
#include "net/deployment.h"
#include "obs/flight_recorder.h"
#include "obs/runtime.h"
#include "transport/thread_transport.h"

using namespace p2pdrm;

namespace {

std::string arg_string(int argc, char** argv, const char* flag,
                       const std::string& fallback) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, prefix.size(), prefix) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

std::size_t arg_size(int argc, char** argv, const char* flag,
                     std::size_t fallback) {
  const std::string v = arg_string(argc, argv, flag, "");
  if (v.empty()) return fallback;
  const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  return n == 0 ? fallback : static_cast<std::size_t>(n);
}

// --- threaded mode: concurrent sessions against the live transport ---

/// Wall-clock bound on one session's login + switch; generous enough for
/// sanitizer builds, where a lost completion must still end the run.
constexpr util::SimTime kSessionTimeout = 5 * util::kMinute;

int run_thread(int argc, char** argv) {
  const std::size_t drivers =
      std::max<std::size_t>(1, arg_size(argc, argv, "--threads", 4));
  const std::size_t sessions = arg_size(argc, argv, "--sessions", 120);
  const std::size_t loops = arg_size(argc, argv, "--loops", 4);
  std::string out = bench::out_path(argc, argv, "--bench-out", "P2PDRM_BENCH_OUT");
  if (out.empty()) out = "BENCH_real_stack.json";

  bench::print_header("Validation — real stack, threaded transport (" +
                      std::to_string(drivers) + " driver threads, " +
                      std::to_string(sessions) + " sessions)");

  // Post-mortem hook, opt-in via environment: the flight recorder dumps
  // structured event rings if the live stack crashes.
  if (obs::FlightRecorder::global().arm_from_env()) {
    std::printf("# flight recorder armed -> %s\n",
                obs::FlightRecorder::global().dump_path());
  }

  net::DeploymentConfig cfg;
  cfg.seed = 99;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = loops;
  // Tight LAN-ish links: the live bench measures real stack throughput on
  // wall-clock time; the paper's WAN latency curve is the sim mode's job.
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 3 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;
  cfg.request_timeout = 2 * util::kSecond;
  // Every session JOINs channel 1; the root must be able to admit them all
  // even before announced peers start absorbing children.
  cfg.root_peer_capacity = sessions + 8;
  net::Deployment d(cfg);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "validation", region);
  d.start_channel_server(1);
  d.add_user("v@example.com", "pw");

  // Client configs (and the clients themselves) are minted on the main
  // thread: make_client_config mutates the deployment's rng and node
  // counter and is control-plane-only on a live transport.
  std::vector<std::unique_ptr<net::AsyncClient>> clients;
  clients.reserve(sessions);
  crypto::SecureRandom rng(5);
  for (std::size_t i = 0; i < sessions; ++i) {
    clients.push_back(std::make_unique<net::AsyncClient>(
        d.make_client_config("v@example.com", "pw", region), d.network(),
        crypto::SecureRandom(rng.next_u64())));
  }

  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> completed{0};

  const auto wall0 = std::chrono::steady_clock::now();
  // Each driver walks its stride of the session list, keeping exactly one
  // of its sessions in flight at a time — so the deployment sees `drivers`
  // concurrent full-protocol sessions. All protocol work runs on the
  // owning client's event loop; the driver only waits on run_op.
  const auto drive = [&](std::size_t start) {
    for (std::size_t i = start; i < sessions; i += drivers) {
      net::AsyncClient* c = clients[i].get();
      const std::optional<core::DrmError> result = d.run_op(
          *c, net::login_and_switch(*c, 1, [c, &d] { d.announce(*c); }),
          kSessionTimeout);
      if (result == core::DrmError::kOk) {
        completed.fetch_add(1, std::memory_order_relaxed);
      } else {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "session %zu failed: %s\n", i,
                     result ? std::string(core::to_string(*result)).c_str()
                            : "never completed");
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(drivers);
  for (std::size_t t = 0; t < drivers; ++t) pool.emplace_back(drive, t);
  for (std::thread& t : pool) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  // Stop the loops before harvesting: client state is loop-confined and
  // only safe to read once the transport is quiescent.
  d.transport().shutdown();

  // Event-loop telemetry: with the loops joined, every executed task has
  // exactly one scheduling-latency sample (histogram count == tasks).
  std::vector<obs::LoopStats> loop_stats;
  obs::LatencyHistogram sched;
  if (const auto* threaded =
          dynamic_cast<const transport::ThreadTransport*>(&d.transport())) {
    loop_stats = threaded->loop_stats();
    sched = threaded->sched_latency();
  }

  std::array<std::vector<double>, core::kNumRounds> lat;
  std::uint64_t rounds_ok = 0, rounds_failed = 0, retransmits = 0;
  for (const std::unique_ptr<net::AsyncClient>& c : clients) {
    retransmits += c->retransmits();
    for (const core::LatencySample& s : c->feedback_log()) {
      if (!s.success) {
        ++rounds_failed;
        continue;
      }
      ++rounds_ok;
      lat[static_cast<std::size_t>(s.round)].push_back(
          util::to_seconds(s.latency) * 1000.0);  // ms
    }
  }
  const double rps = wall_s > 0 ? static_cast<double>(rounds_ok) / wall_s : 0;

  std::printf("# %llu/%zu sessions completed, %llu protocol errors, "
              "%llu retransmits\n",
              static_cast<unsigned long long>(completed.load()), sessions,
              static_cast<unsigned long long>(protocol_errors.load()),
              static_cast<unsigned long long>(retransmits));
  std::printf("# wall time %.2fs — %.1f protocol rounds/s (%llu rounds, "
              "real RSA-512 crypto end to end)\n\n",
              wall_s, rps, static_cast<unsigned long long>(rounds_ok));
  std::printf("%-8s %8s %10s %10s %10s\n", "round", "count", "p50(ms)",
              "p95(ms)", "p99(ms)");
  for (const core::Round r : core::kAllRounds) {
    const std::vector<double>& l = lat[static_cast<std::size_t>(r)];
    std::printf("%-8s %8zu %10.2f %10.2f %10.2f\n", to_string(r).data(), l.size(),
                analysis::quantile(l, 0.50), analysis::quantile(l, 0.95),
                analysis::quantile(l, 0.99));
  }

  if (!loop_stats.empty()) {
    std::printf("\n%-8s %10s %10s %10s %6s %10s %10s\n", "loop", "tasks",
                "busy(ms)", "idle(ms)", "util", "ready_pk", "timer_pk");
    for (std::size_t i = 0; i < loop_stats.size(); ++i) {
      const obs::LoopStats& ls = loop_stats[i];
      std::printf("%-8zu %10llu %10.1f %10.1f %5.0f%% %10lld %10lld\n", i,
                  static_cast<unsigned long long>(ls.tasks),
                  static_cast<double>(ls.busy_us) / 1000.0,
                  static_cast<double>(ls.idle_us) / 1000.0,
                  ls.utilization() * 100.0,
                  static_cast<long long>(ls.ready_peak),
                  static_cast<long long>(ls.timer_peak));
    }
    std::printf("sched latency: p50 %.0fus p95 %.0fus p99 %.0fus (%llu samples)\n",
                sched.p50(), sched.p95(), sched.p99(),
                static_cast<unsigned long long>(sched.count()));
  }

  obs::JsonWriter j;
  j.begin_object()
      .kv("bench", "validation_real_stack")
      .kv("transport", "thread")
      .kv("driver_threads", static_cast<std::uint64_t>(drivers))
      .kv("event_loops", static_cast<std::uint64_t>(d.transport().groups()))
      .kv("sessions", static_cast<std::uint64_t>(sessions))
      .kv("sessions_completed", completed.load())
      .kv("protocol_errors", protocol_errors.load())
      .kv("rounds_ok", rounds_ok)
      .kv("rounds_failed", rounds_failed)
      .kv("retransmits", retransmits)
      .kv("wall_seconds", wall_s)
      .kv("requests_per_second", rps);
  j.key("loops").begin_array();
  for (std::size_t i = 0; i < loop_stats.size(); ++i) {
    const obs::LoopStats& ls = loop_stats[i];
    j.begin_object()
        .kv("loop", static_cast<std::uint64_t>(i))
        .kv("tasks", ls.tasks)
        .kv("timers_fired", ls.timers_fired)
        .kv("busy_us", ls.busy_us)
        .kv("idle_us", ls.idle_us)
        .kv("utilization", ls.utilization())
        .kv("ready_peak", ls.ready_peak)
        .kv("timer_peak", ls.timer_peak)
        .end_object();
  }
  j.end_array();
  j.key("sched_latency_us")
      .begin_object()
      .kv("count", sched.count())
      .kv("p50", sched.p50())
      .kv("p95", sched.p95())
      .kv("p99", sched.p99())
      .end_object();
  j.key("rounds").begin_array();
  for (const core::Round r : core::kAllRounds) {
    const std::vector<double>& l = lat[static_cast<std::size_t>(r)];
    j.begin_object()
        .kv("round", std::string(to_string(r)))
        .kv("count", static_cast<std::uint64_t>(l.size()))
        .kv("p50_ms", analysis::quantile(l, 0.50))
        .kv("p95_ms", analysis::quantile(l, 0.95))
        .kv("p99_ms", analysis::quantile(l, 0.99))
        .end_object();
  }
  j.end_array().end_object();
  bench::write_file(out, j.str());

  if (protocol_errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu protocol errors on the live stack\n",
                 static_cast<unsigned long long>(protocol_errors.load()));
    return 1;
  }
  std::printf("\nPASS: every session completed the full five-round protocol "
              "on the threaded transport\n");
  return 0;
}

// --- sim mode: the historical diurnal-swing validation (deterministic) ---

struct Session {
  std::unique_ptr<net::AsyncClient> client;
  util::SimTime end_time = 0;
  bool active = false;
};

int run_sim() {
  std::printf("\n=== Validation — real stack vs calibrated model (flat latency "
              "under load swing) ===\n");

  net::DeploymentConfig cfg;
  cfg.seed = 99;
  cfg.default_link.latency.floor = 15 * util::kMillisecond;
  cfg.default_link.latency.median = 60 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.5;
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 8 * util::kMillisecond;
  net::Deployment d(cfg);
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "validation", region);
  d.start_channel_server(1);
  d.add_user("v@example.com", "pw");

  // Compressed diurnal curve: rate(t) swings 1x..6x over two hours.
  const util::SimTime horizon = 2 * util::kHour;
  const auto rate_per_min = [&](util::SimTime t) {
    const double phase = static_cast<double>(t) / static_cast<double>(horizon);
    return 1.5 + 4.5 * (0.5 - 0.5 * std::cos(2 * 3.14159265 * phase));  // 1.5..6
  };

  std::deque<Session> sessions;
  crypto::SecureRandom rng(5);
  std::int64_t concurrency = 0;

  // Concurrency tracking per 10-minute bucket (time-weighted).
  const std::size_t buckets = static_cast<std::size_t>(horizon / (10 * util::kMinute));
  std::vector<double> bucket_conc(buckets, 0);
  util::SimTime last_change = 0;
  const auto track = [&](util::SimTime now, int delta) {
    util::SimTime t = last_change;
    while (t < now) {
      const std::size_t b = static_cast<std::size_t>(t / (10 * util::kMinute));
      const util::SimTime bucket_end =
          static_cast<util::SimTime>(b + 1) * 10 * util::kMinute;
      const util::SimTime span = std::min(now, bucket_end) - t;
      if (b < buckets) {
        bucket_conc[b] += static_cast<double>(concurrency) * static_cast<double>(span);
      }
      t += span;
    }
    last_change = now;
    concurrency += delta;
  };

  // Arrival loop driven inside the simulation.
  std::function<void()> schedule_arrival = [&] {
    const double gap_min = rng.exponential(rate_per_min(d.sim().now()));
    const util::SimTime next =
        std::max<util::SimTime>(util::kSecond, util::seconds(gap_min * 60));
    d.sim().schedule(next, [&] {
      if (d.sim().now() >= horizon) return;
      schedule_arrival();

      sessions.push_back({});
      Session& s = sessions.back();
      s.client = std::make_unique<net::AsyncClient>(
          d.make_client_config("v@example.com", "pw", region), d.network(),
          crypto::SecureRandom(rng.next_u64()));
      s.client->enable_auto_renewal();
      s.end_time = d.sim().now() + static_cast<util::SimTime>(rng.lognormal(
                                       std::log(15.0 * 60 * 1000000), 0.7));
      s.active = true;
      track(d.sim().now(), +1);
      net::AsyncClient* c = s.client.get();
      Session* sp = &s;
      c->login([c, sp, &d, &track](core::DrmError err) {
        if (err != core::DrmError::kOk) return;
        c->switch_channel(1, [c, sp, &d, &track](core::DrmError err2) {
          if (err2 == core::DrmError::kOk) d.announce(*c);
          // Session end.
          const util::SimTime remaining =
              std::max<util::SimTime>(1, sp->end_time - d.sim().now());
          d.sim().schedule(remaining, [c, sp, &d, &track] {
            if (!sp->active) return;
            sp->active = false;
            track(d.sim().now(), -1);
            c->leave();
          });
        });
      });
    });
  };
  schedule_arrival();
  d.run_until(horizon);
  track(horizon, 0);

  // Harvest feedback logs into per-bucket reservoirs per round.
  std::array<std::vector<std::vector<double>>, core::kNumRounds> lat;
  for (auto& per_round : lat) per_round.assign(buckets, {});
  std::uint64_t total_rounds = 0;
  for (const Session& s : sessions) {
    for (const core::LatencySample& sample : s.client->feedback_log()) {
      if (!sample.success) continue;
      const std::size_t b =
          static_cast<std::size_t>(sample.started / (10 * util::kMinute));
      if (b >= buckets) continue;
      lat[static_cast<std::size_t>(sample.round)][b].push_back(
          util::to_seconds(sample.latency));
      ++total_rounds;
    }
  }
  for (double& v : bucket_conc) v /= static_cast<double>(10 * util::kMinute);

  std::printf("# %zu sessions, %llu successful protocol rounds, real RSA-512 "
              "crypto end to end\n\n",
              sessions.size(), static_cast<unsigned long long>(total_rounds));
  std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "bucket", "users",
              "LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN");
  for (std::size_t b = 0; b < buckets; ++b) {
    std::printf("%-8zu %10.1f", b, bucket_conc[b]);
    for (std::size_t r = 0; r < 5; ++r) {
      std::printf(" %9.3fs", analysis::median(lat[r][b]));
    }
    std::printf("\n");
  }

  std::printf("\ncorrelation of median latency with concurrency (expect ~0, as "
              "in Fig. 5;\nsmall-sample buckets excluded — at this scale r is "
              "noisy, the flat table above\nis the result):\n");
  for (const core::Round r : core::kAllRounds) {
    const std::vector<std::vector<double>>& per_bucket = lat[static_cast<std::size_t>(r)];
    std::vector<double> medians, conc;
    for (std::size_t b = 0; b < buckets; ++b) {
      if (per_bucket[b].size() < 20) continue;  // too thin to trust a median
      medians.push_back(analysis::median(per_bucket[b]));
      conc.push_back(bucket_conc[b]);
    }
    const auto corr = analysis::pearson(medians, conc);
    std::printf("  %-8s r = %+.3f   (%zu buckets)\n", to_string(r).data(),
                corr.value_or(0.0), medians.size());
  }
  std::printf("\nconcurrency swing over the run: %.0f .. %.0f users\n",
              *std::min_element(bucket_conc.begin(), bucket_conc.end()),
              *std::max_element(bucket_conc.begin(), bucket_conc.end()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string transport = arg_string(argc, argv, "--transport", "thread");
  if (transport == "sim") return run_sim();
  if (transport != "thread") {
    std::fprintf(stderr, "unknown --transport=%s (want sim|thread)\n",
                 transport.c_str());
    return 2;
  }
  return run_thread(argc, argv);
}
