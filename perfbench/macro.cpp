// macro_day: the sharded macro-sim at paper scale (peak 25,000 concurrent
// viewers, 8 shards), one simulated day per op. No crypto, no transport:
// this is the simulator hot loop. Each day runs under a simulation seed
// from a fixed list, and its output digest must equal the value recorded
// for (seed, shards) below.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common.h"
#include "sim/macro_engine.h"

namespace perfbench {
namespace {

constexpr std::size_t kShards = 8;
constexpr double kPeak = 25000;
constexpr std::uint64_t kFirstSimSeed = 20080623;
constexpr int kSetupRepeats = 25;

/// Output digest of one simulated day for simulation seed kFirstSimSeed + i
/// at kShards shards (thread-count invariant). Re-record with
/// `perfbench --workload macro_record --seed 0 --seconds 1 --trace 0` when
/// the simulator's output changes on purpose.
constexpr std::uint64_t kRecordedDigests[] = {
    0xe6f1082ea476aaabull, 0x84f87cc9fcdc2c43ull, 0x40e8b6badd5d7d0bull,
    0x41f4500496b8742eull, 0x7bc60dfe1cd7e98bull, 0x082ede260d0b4235ull,
    0x0eb2b7bfd72dbda3ull, 0x49a9378b5a5b0ca4ull,
};
constexpr std::size_t kNumSimSeeds =
    sizeof(kRecordedDigests) / sizeof(kRecordedDigests[0]);

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Digest over everything the engine reports that is a pure function of
/// (config, seed, shards): registry dump, reservoir samples, concurrency
/// curve and totals. Wall-clock telemetry stays out.
std::uint64_t result_digest(const p2pdrm::sim::MacroSimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const std::string reg = r.registry->to_string();
  h = fnv1a(h, reg.data(), reg.size());
  for (const p2pdrm::sim::RoundTrace& t : r.rounds) {
    h = fnv1a_value(h, t.count);
    const auto hash_res = [&h](const p2pdrm::analysis::Reservoir& res) {
      h = fnv1a_value(h, res.seen());
      for (const double v : res.samples()) h = fnv1a_value(h, v);
    };
    hash_res(t.peak);
    hash_res(t.offpeak);
    for (const p2pdrm::analysis::Reservoir& res : t.hourly) hash_res(res);
  }
  for (const double c : r.hourly_concurrency) h = fnv1a_value(h, c);
  for (const std::uint64_t v :
       {r.sessions, r.channel_switches, r.ct_renewals, r.ut_renewals,
        r.join_retries, r.logins_shed, r.busy_retries, r.busy_abandoned,
        r.events}) {
    h = fnv1a_value(h, v);
  }
  h = fnv1a_value(h, r.peak_observed_concurrency);
  h = fnv1a_value(h, r.um_utilization);
  h = fnv1a_value(h, r.cm_utilization);
  return h;
}

p2pdrm::sim::MacroSimConfig day_config(std::size_t sim_seed_index) {
  p2pdrm::sim::MacroSimConfig cfg = p2pdrm::bench::paper_config();
  cfg.days = 1;
  cfg.peak_concurrent = kPeak;
  cfg.shards = kShards;
  cfg.threads = std::min<std::size_t>(
      4, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  cfg.seed = kFirstSimSeed + sim_seed_index;
  return cfg;
}

}  // namespace

Result run_macro_day(const Options& opt) {
  Result r;
  std::vector<double> setup_s, setup_cpu_s, day_ms, barrier_frac, coordinator_s,
      worker_busy_max;
  double imbalance_max = 0;
  std::uint64_t events = 0;
  double run_wall = 0, run_cpu = 0, first_day_rss_mb = 0;
  p2pdrm::analysis::CriticalPathReport cp;

  // Set-up cost: one set-up constructs the engine of every recorded
  // simulation seed in turn, some 15-25 ms of allocation and page faults.
  // Timed on one thread, that figure moved by up to 2x with the core the
  // thread ran on (its SMT sibling's load on a shared host). So each
  // set-up runs on every worker thread at once and reports the CPU time
  // per thread, which averages over the cores. The first few set-ups run
  // slower while the allocator warms up; the median of kSetupRepeats
  // set-ups lies past them.
  const std::size_t builders = day_config(0).threads;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    std::vector<std::thread> threads;
    for (std::size_t b = 0; b < builders; ++b) {
      threads.emplace_back([] {
        for (std::size_t k = 0; k < kNumSimSeeds; ++k) {
          const p2pdrm::sim::MacroEngine engine(day_config(k));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    setup_cpu_s.push_back((process_cpu_s() - cpu0) / static_cast<double>(builders));
    setup_s.push_back(seconds_since(t0));
  }

  const bool record = opt.workload == "macro_record";
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; record ? k < kNumSimSeeds
                                 : k == 0 || seconds_since(start) < opt.seconds;
       ++k) {
    const std::size_t index = (opt.seed + k) % kNumSimSeeds;
    p2pdrm::sim::MacroSimConfig cfg = day_config(index);
    p2pdrm::obs::Tracer tracer;
    if (opt.trace) {
      cfg.obs.tracer = &tracer;
      cfg.obs.trace_session_every = 2000;
    }
    p2pdrm::sim::MacroEngine engine(cfg);
    const Clock::time_point t1 = Clock::now();
    const double cpu0 = process_cpu_s();
    const p2pdrm::sim::MacroSimResult result = engine.run();
    const double wall = seconds_since(t1);
    run_cpu += process_cpu_s() - cpu0;
    if (k == 0) first_day_rss_mb = peak_rss_mb();
    day_ms.push_back(wall * 1e3);
    run_wall += wall;
    events += result.events;

    ++r.attempted;
    const std::uint64_t digest = result_digest(result);
    if (record) {
      std::printf("    0x%016llxull,  // seed %llu\n",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(cfg.seed));
    } else if (digest != kRecordedDigests[index]) {
      ++r.failed;
      std::printf("# day with sim seed %llu: digest %016llx, recorded %016llx\n",
                  static_cast<unsigned long long>(cfg.seed),
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(kRecordedDigests[index]));
    }

    const p2pdrm::sim::MacroRuntimeStats& rt = result.runtime;
    barrier_frac.push_back(rt.barrier_wait_fraction);
    coordinator_s.push_back(rt.coordinator_wall_seconds);
    double busy = 0;
    for (const double b : rt.worker_busy_seconds) busy = std::max(busy, b);
    worker_busy_max.push_back(busy);
    imbalance_max = std::max(imbalance_max, rt.imbalance_max);
    if (opt.trace) {
      for (const auto& [round, b] :
           p2pdrm::analysis::analyze_critical_path(tracer).rounds) {
        p2pdrm::analysis::RoundBreakdown& acc = cp.rounds[round];
        acc.rounds += b.rounds;
        acc.total_us += b.total_us;
        acc.network_us += b.network_us;
        acc.queue_us += b.queue_us;
        acc.service_us += b.service_us;
        acc.retrans_us += b.retrans_us;
        acc.client_us += b.client_us;
      }
    }
  }

  r.set("setup_s", median(setup_s), "s");
  r.set("setup_cpu_s", median(setup_cpu_s), "s");
  // Later days reuse the first day's heap, but how far it fragments depends
  // on how many days fit in the run; the first day's high-water does not.
  r.set("peak_rss_mb", first_day_rss_mb, "MB");
  r.set("fail_ratio",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio");
  r.set("sim_events_per_s", static_cast<double>(events) / run_wall, "1/s");
  r.set("cpu_us_per_op", run_cpu * 1e6 / static_cast<double>(events), "us");
  r.set("day_ms_p50", quantile(day_ms, 0.5), "ms");
  r.set("day_ms_p99", quantile(day_ms, 0.99), "ms");
  r.check("every simulated day matches its recorded digest", r.failed == 0);
  if (opt.trace) {
    r.set("sim.events", static_cast<double>(events) /
                            static_cast<double>(r.attempted), "count");
    r.set("sim.barrier_wait_frac", median(barrier_frac), "ratio");
    r.set("sim.imbalance_max", imbalance_max, "ratio");
    r.set("sim.coordinator_s", median(coordinator_s), "s");
    r.set("sim.worker_busy_s_max", median(worker_busy_max), "s");
    critical_path_metrics(cp, r);
  }
  return r;
}

}  // namespace perfbench
