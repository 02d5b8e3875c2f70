// Throughput + determinism bench for the sharded macro-sim engine.
//
// Runs the same (seed, shards) configuration at threads=1 and at the
// requested --threads, then reports events/sec, wall-clock, and peak RSS
// per run — and proves the tentpole guarantee by hashing every output the
// engine produces (registry dump, reservoir samples, concurrency curve,
// totals) into a digest that must be identical across thread counts.
//
// Emits BENCH_macro_sim.json (schema p2pdrm.bench.v1). Exit status is
// nonzero iff the digests diverge; the speedup figure is informational
// (a 1-core container cannot show one, CI multi-core runners can).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "sim_run.h"

using namespace p2pdrm;

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t fnv1a_f64(std::uint64_t h, double v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Digest over everything the engine reports: if any output byte depends on
/// the thread count, this catches it.
std::uint64_t result_digest(const sim::MacroSimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const std::string reg = r.registry->to_string();
  h = fnv1a(h, reg.data(), reg.size());
  for (const sim::RoundTrace& t : r.rounds) {
    h = fnv1a_u64(h, t.count);
    const auto hash_res = [&h](const analysis::Reservoir& res) {
      h = fnv1a_u64(h, res.seen());
      for (const double v : res.samples()) h = fnv1a_f64(h, v);
    };
    hash_res(t.peak);
    hash_res(t.offpeak);
    for (const analysis::Reservoir& res : t.hourly) hash_res(res);
  }
  for (const double c : r.hourly_concurrency) h = fnv1a_f64(h, c);
  h = fnv1a_u64(h, r.sessions);
  h = fnv1a_u64(h, r.channel_switches);
  h = fnv1a_u64(h, r.ct_renewals);
  h = fnv1a_u64(h, r.ut_renewals);
  h = fnv1a_u64(h, r.join_retries);
  h = fnv1a_u64(h, r.logins_shed);
  h = fnv1a_u64(h, r.busy_retries);
  h = fnv1a_u64(h, r.busy_abandoned);
  h = fnv1a_f64(h, r.peak_observed_concurrency);
  h = fnv1a_f64(h, r.um_utilization);
  h = fnv1a_f64(h, r.cm_utilization);
  h = fnv1a_u64(h, r.events);
  return h;
}

std::uint64_t peak_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

struct RunStats {
  std::size_t threads;
  std::uint64_t events;
  double wall_seconds;
  double events_per_second;
  std::uint64_t digest;
  std::uint64_t rss_kb;
  // Wall-clock/imbalance telemetry; reported per run but never digested —
  // the digest covers only thread-count-invariant outputs.
  sim::MacroRuntimeStats runtime;
};

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("macro_sim", argc, argv);
  bench::print_header("macro-sim engine: sharded throughput + determinism");

  sim::MacroSimConfig cfg = bench::paper_config();
  cfg.days = 1;
  cfg.peak_concurrent = 100000;
  cfg.threads = 4;
  cfg = run.finalize(cfg);  // applies --seed/--days/--peak/--threads/--shards

  const std::size_t want_threads = cfg.threads == 0
                                       ? std::thread::hardware_concurrency()
                                       : cfg.threads;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("# days=%d peak=%.0f shards=%zu seed=%llu  (host: %u cores)\n",
              cfg.days, cfg.peak_concurrent, cfg.shards,
              static_cast<unsigned long long>(cfg.seed), cores);

  std::vector<std::size_t> thread_counts{1};
  if (want_threads > 1) thread_counts.push_back(want_threads);

  std::printf("\n%-8s %14s %12s %14s %12s %18s\n", "threads", "events",
              "wall", "events/sec", "rss", "digest");
  std::vector<RunStats> stats;
  for (const std::size_t t : thread_counts) {
    sim::MacroSimConfig arm = cfg;
    arm.threads = t;
    const auto start = std::chrono::steady_clock::now();
    const sim::MacroSimResult result = sim::run_macro_sim(arm);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    RunStats s;
    s.threads = t;
    s.events = result.events;
    s.wall_seconds = wall;
    s.events_per_second = wall > 0 ? static_cast<double>(result.events) / wall : 0;
    s.digest = result_digest(result);
    s.rss_kb = peak_rss_kb();
    s.runtime = result.runtime;
    if (t == thread_counts.back()) run.maybe_write_prom(*result.registry);
    stats.push_back(s);
    std::printf("%-8zu %14llu %10.2fs %14.0f %9lluMB %18llx\n", t,
                static_cast<unsigned long long>(s.events), s.wall_seconds,
                s.events_per_second,
                static_cast<unsigned long long>(s.rss_kb / 1024),
                static_cast<unsigned long long>(s.digest));
  }

  bool identical = true;
  for (const RunStats& s : stats) identical &= s.digest == stats[0].digest;
  const double speedup = stats.size() > 1 && stats.back().events_per_second > 0
                             ? stats.back().events_per_second /
                                   stats[0].events_per_second
                             : 1.0;
  std::printf("\nbyte-identical across thread counts: %s\n",
              identical ? "YES" : "NO — DETERMINISM BROKEN");
  if (stats.size() > 1) {
    std::printf("speedup threads=%zu vs threads=1: %.2fx (host has %u cores)\n",
                stats.back().threads, speedup, cores);
  }

  run.begin_artifact(cfg);
  obs::JsonWriter& j = run.json();
  j.begin_object();
  j.kv("hardware_concurrency", static_cast<std::uint64_t>(cores));
  j.key("runs").begin_array();
  for (const RunStats& s : stats) {
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(s.digest));
    j.begin_object();
    j.kv("threads", static_cast<std::uint64_t>(s.threads));
    j.kv("events", s.events);
    j.kv("wall_seconds", s.wall_seconds);
    j.kv("events_per_second", s.events_per_second);
    j.kv("peak_rss_kb", s.rss_kb);
    j.kv("digest", digest);
    j.key("runtime");
    bench::SimRun::write_runtime_json(j, s.runtime);
    j.end_object();
  }
  j.end_array();
  j.kv("byte_identical", identical);
  j.kv("speedup", speedup);
  j.end_object();
  run.set_runtime(stats.back().runtime);
  run.finish_artifact();

  return identical ? 0 : 1;
}
