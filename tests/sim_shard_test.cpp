// The sharded engine's tentpole guarantee: output is a pure function of
// (config, seed, shards) — the worker thread count buys wall-clock only and
// never changes a single output byte. Plus the supporting pieces: config
// validation, deterministic reservoir merging, and the channel partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "crypto/sha256.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/macro_sim.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace p2pdrm::sim {
namespace {

MacroSimConfig sharded_config() {
  MacroSimConfig cfg;
  cfg.days = 1;
  cfg.peak_concurrent = 1500;
  cfg.seed = 20080623;
  cfg.num_channels = 40;
  cfg.reservoir_per_hour = 300;
  cfg.reservoir_cdf = 5000;
  cfg.shards = 4;
  cfg.key_rotation.enabled = true;
  return cfg;
}

/// Everything a run reports, flattened for equality comparison.
void expect_identical(const MacroSimResult& a, const MacroSimResult& b,
                      const char* label) {
  EXPECT_EQ(a.sessions, b.sessions) << label;
  EXPECT_EQ(a.channel_switches, b.channel_switches) << label;
  EXPECT_EQ(a.ct_renewals, b.ct_renewals) << label;
  EXPECT_EQ(a.ut_renewals, b.ut_renewals) << label;
  EXPECT_EQ(a.join_retries, b.join_retries) << label;
  EXPECT_EQ(a.logins_shed, b.logins_shed) << label;
  EXPECT_EQ(a.busy_retries, b.busy_retries) << label;
  EXPECT_EQ(a.busy_abandoned, b.busy_abandoned) << label;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.peak_observed_concurrency, b.peak_observed_concurrency) << label;
  EXPECT_EQ(a.um_utilization, b.um_utilization) << label;
  EXPECT_EQ(a.cm_utilization, b.cm_utilization) << label;
  ASSERT_EQ(a.hourly_concurrency.size(), b.hourly_concurrency.size()) << label;
  for (std::size_t h = 0; h < a.hourly_concurrency.size(); ++h) {
    // Bitwise equality: the concurrency integral must merge identically.
    EXPECT_EQ(a.hourly_concurrency[h], b.hourly_concurrency[h])
        << label << " hour " << h;
  }
  for (std::size_t r = 0; r < core::kNumRounds; ++r) {
    const RoundTrace& ta = a.rounds[r];
    const RoundTrace& tb = b.rounds[r];
    EXPECT_EQ(ta.count, tb.count) << label;
    EXPECT_EQ(ta.peak.samples(), tb.peak.samples()) << label << " round " << r;
    EXPECT_EQ(ta.offpeak.samples(), tb.offpeak.samples())
        << label << " round " << r;
    ASSERT_EQ(ta.hourly.size(), tb.hourly.size()) << label;
    for (std::size_t h = 0; h < ta.hourly.size(); ++h) {
      EXPECT_EQ(ta.hourly[h].samples(), tb.hourly[h].samples())
          << label << " round " << r << " hour " << h;
      EXPECT_EQ(ta.hourly[h].seen(), tb.hourly[h].seen())
          << label << " round " << r << " hour " << h;
    }
  }
  ASSERT_NE(a.registry, nullptr);
  ASSERT_NE(b.registry, nullptr);
  EXPECT_EQ(a.registry->to_string(), b.registry->to_string()) << label;
  // Event-count runtime telemetry is deterministic (the wall-clock fields
  // deliberately are not and stay out of every digest).
  EXPECT_EQ(a.runtime.shard_events, b.runtime.shard_events) << label;
  EXPECT_EQ(a.runtime.windows, b.runtime.windows) << label;
}

TEST(ShardedEngineTest, RuntimeStatsDescribeTheRun) {
  MacroSimConfig cfg = sharded_config();
  cfg.threads = 2;
  const MacroSimResult r = run_macro_sim(cfg);
  ASSERT_EQ(r.runtime.shard_events.size(), cfg.shards);
  std::uint64_t shard_total = 0;
  for (const std::uint64_t e : r.runtime.shard_events) shard_total += e;
  EXPECT_GT(shard_total, 0u);
  EXPECT_LE(shard_total, r.events);  // coordinator events are not shard work
  EXPECT_GT(r.runtime.windows, 0u);
  // Imbalance is max-over-mean per window: >= 1 by construction, and the
  // worst window bounds the average.
  EXPECT_GE(r.runtime.imbalance_mean, 1.0);
  EXPECT_GE(r.runtime.imbalance_max, r.runtime.imbalance_mean);
  // The wall timers: each worker's busy time lies inside the windows it
  // ran in, so together they fit in threads x window wall time, and the
  // coordinator's barrier work is timed on its own.
  ASSERT_EQ(r.threads_used, 2u);
  ASSERT_EQ(r.runtime.worker_busy_seconds.size(), r.threads_used);
  double busy_total = 0;
  for (const double busy : r.runtime.worker_busy_seconds) {
    EXPECT_GT(busy, 0.0);
    busy_total += busy;
  }
  EXPECT_LE(busy_total, static_cast<double>(r.threads_used) *
                            r.runtime.window_wall_seconds);
  EXPECT_GT(r.runtime.coordinator_wall_seconds, 0.0);
  EXPECT_GE(r.runtime.barrier_wait_seconds, 0.0);
  EXPECT_GE(r.runtime.barrier_wait_fraction, 0.0);
  EXPECT_LE(r.runtime.barrier_wait_fraction, 1.0);
}

TEST(ShardedEngineTest, SameSeedByteIdenticalAcrossThreadCounts) {
  MacroSimConfig cfg = sharded_config();
  cfg.threads = 1;
  const MacroSimResult t1 = run_macro_sim(cfg);
  cfg.threads = 2;
  const MacroSimResult t2 = run_macro_sim(cfg);
  cfg.threads = 8;
  const MacroSimResult t8 = run_macro_sim(cfg);
  EXPECT_EQ(t1.threads_used, 1u);
  EXPECT_EQ(t2.threads_used, 2u);
  EXPECT_EQ(t8.threads_used, 4u);  // clamped to the 4 shards
  expect_identical(t1, t2, "threads 1 vs 2");
  expect_identical(t1, t8, "threads 1 vs 8");
}

TEST(ShardedEngineTest, PaperScaleDayByteIdenticalAcrossThreadCounts) {
  // The paper's measurement setting (§VI) for one day: 25k peak viewers,
  // 200 channels, 2 User Managers and 4 Channel Managers, 8 shards.
  MacroSimConfig cfg;
  cfg.days = 1;
  cfg.peak_concurrent = 25000;
  cfg.num_channels = 200;
  cfg.user_manager_servers = 2;
  cfg.channel_manager_servers = 4;
  cfg.seed = 20080623;
  cfg.shards = 8;
  cfg.threads = 1;
  const MacroSimResult t1 = run_macro_sim(cfg);
  cfg.threads = 4;
  const MacroSimResult t4 = run_macro_sim(cfg);
  EXPECT_EQ(t4.threads_used, 4u);
  EXPECT_GT(t1.events, 0u);
  expect_identical(t1, t4, "paper-scale threads 1 vs 4");
}

TEST(ShardedEngineTest, ObservabilityIdenticalAcrossThreadCounts) {
  // The deterministic merge must extend to every observability surface:
  // scraped time series, SLO monitor state, and the exported trace.
  const auto run_with_obs = [](std::size_t threads, std::string* csv,
                               std::string* slo_report, std::string* trace) {
    MacroSimConfig cfg = sharded_config();
    cfg.threads = threads;
    obs::Tracer tracer;
    obs::TimeSeries ts;
    obs::SloMonitor slo({{"LOGIN2", 3000000, 8000000, 6 * util::kHour},
                         {"JOIN", 5000000, 13000000, 6 * util::kHour}});
    cfg.obs.tracer = &tracer;
    cfg.obs.trace_session_every = 500;
    cfg.obs.timeseries = &ts;
    cfg.obs.slo = &slo;
    const MacroSimResult result = run_macro_sim(cfg);
    *csv = ts.to_csv();
    *slo_report = slo.report();
    *trace = obs::spans_to_chrome_trace(tracer);
    return result;
  };
  std::string csv1, slo1, trace1, csv8, slo8, trace8;
  const MacroSimResult r1 = run_with_obs(1, &csv1, &slo1, &trace1);
  const MacroSimResult r8 = run_with_obs(8, &csv8, &slo8, &trace8);
  expect_identical(r1, r8, "obs run threads 1 vs 8");
  EXPECT_EQ(csv1, csv8);
  EXPECT_EQ(slo1, slo8);
  EXPECT_EQ(trace1, trace8);
  EXPECT_FALSE(trace1.empty());
  EXPECT_NE(csv1.find("load.concurrent"), std::string::npos);
}

TEST(ShardedEngineTest, ScrapedObservabilityPinned) {
  // The scrape path's bytes, pinned: a 2-thread run with the time series
  // and SLO monitor on. The thread-count test above only compares runs
  // with each other; this one catches a change that moves what every
  // scrape sees (the peak/off-peak/all histograms must be current at each
  // tick, not only at the end of the run).
  MacroSimConfig cfg = sharded_config();
  cfg.threads = 2;
  obs::TimeSeries ts;
  obs::SloMonitor slo({{"LOGIN2", 3000000, 8000000, 6 * util::kHour},
                       {"JOIN", 5000000, 13000000, 6 * util::kHour}});
  cfg.obs.timeseries = &ts;
  cfg.obs.slo = &slo;
  const MacroSimResult result = run_macro_sim(cfg);
  const auto digest = [](const std::string& s) {
    return util::to_hex(crypto::sha256(util::bytes_of(s)));
  };
  EXPECT_EQ(digest(ts.to_csv()),
            "e3d44e285761ce1bee7cda9b5d9f610b00caf3a816c40ed14925104a72f4f4f2");
  EXPECT_EQ(digest(slo.report()),
            "75f6e76819ad2c079cce1c787c26c4094ac586a3ecfe7b71dca7fb3c81d7116f");
  ASSERT_NE(result.registry, nullptr);
  EXPECT_EQ(digest(result.registry->to_string()),
            "32161a64a8ca1fcab7070f89b48d4455563c8134bb42d956625034053b321b62");
}

TEST(ShardedEngineTest, ShardCountChangesStreamsButKeepsStatistics) {
  MacroSimConfig cfg = sharded_config();
  cfg.shards = 1;
  const MacroSimResult s1 = run_macro_sim(cfg);
  cfg.shards = 4;
  const MacroSimResult s4 = run_macro_sim(cfg);
  EXPECT_EQ(s1.shards_used, 1u);
  EXPECT_EQ(s4.shards_used, 4u);
  // Different partitions are different random streams (outputs differ)...
  EXPECT_NE(s1.sessions, s4.sessions);
  // ...but the model is the same: totals agree within a few percent.
  const double ratio =
      static_cast<double>(s4.sessions) / static_cast<double>(s1.sessions);
  EXPECT_NEAR(ratio, 1.0, 0.1);
  const double peak_ratio =
      s4.peak_observed_concurrency / s1.peak_observed_concurrency;
  EXPECT_NEAR(peak_ratio, 1.0, 0.25);
}

TEST(MacroSimConfigTest, ValidatedAcceptsDefaults) {
  EXPECT_NO_THROW(MacroSimConfig{}.validated());
  EXPECT_TRUE(MacroSimConfig{}.validate().empty());
}

TEST(MacroSimConfigTest, ValidatedRejectsNonsense) {
  const auto errors_of = [](auto&& mutate) {
    MacroSimConfig cfg;
    mutate(cfg);
    return cfg.validate();
  };
  const auto has_error = [](const std::vector<std::string>& errors,
                            const std::string& field) {
    for (const std::string& e : errors) {
      if (e.compare(0, field.size(), field) == 0) return true;
    }
    return false;
  };

  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.days = 0; }), "days"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.peak_concurrent = -5; }),
      "peak_concurrent"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.num_channels = 0; }), "num_channels"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.costs.dispersion = -0.1; }),
      "costs.dispersion"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) {
        c.key_rotation.enabled = true;
        c.key_rotation.fanout = 0;
      }),
      "key_rotation.fanout"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) {
        c.key_rotation.enabled = true;
        c.key_rotation.sampled_peers = 0;
      }),
      "key_rotation.sampled_peers"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) {
        c.obs.slo = reinterpret_cast<obs::SloMonitor*>(&c);  // any non-null
        c.obs.scrape_interval = 0;
      }),
      "obs.scrape_interval"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.shards = 0; }), "shards"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.shards = c.num_channels + 1; }),
      "shards"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.shard_sync_interval = 0; }),
      "shard_sync_interval"));
  EXPECT_TRUE(has_error(
      errors_of([](MacroSimConfig& c) { c.join_base_reject = 1.5; }),
      "join_base_reject"));

  // validated() reports every violation at once and throws.
  MacroSimConfig bad;
  bad.days = 0;
  bad.num_channels = 0;
  try {
    bad.validated();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("days"), std::string::npos);
    EXPECT_NE(what.find("num_channels"), std::string::npos);
  }
}

TEST(ReservoirMergedTest, ExactConcatenationWhenSamplesFit) {
  analysis::Reservoir a(100, 1);
  analysis::Reservoir b(100, 2);
  for (int i = 0; i < 30; ++i) a.add(i);
  for (int i = 100; i < 140; ++i) b.add(i);
  const analysis::Reservoir merged =
      analysis::Reservoir::merged(100, 7, {&a, &b});
  EXPECT_EQ(merged.seen(), 70u);
  ASSERT_EQ(merged.samples().size(), 70u);
  // Exact concatenation, in parts order.
  for (int i = 0; i < 30; ++i) EXPECT_EQ(merged.samples()[i], i);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(merged.samples()[30 + i], 100 + i);
}

TEST(ReservoirMergedTest, DownsamplesDeterministically) {
  analysis::Reservoir a(50, 1);
  analysis::Reservoir b(50, 2);
  for (int i = 0; i < 500; ++i) a.add(i);
  for (int i = 1000; i < 1500; ++i) b.add(i);
  const analysis::Reservoir m1 = analysis::Reservoir::merged(50, 7, {&a, &b});
  const analysis::Reservoir m2 = analysis::Reservoir::merged(50, 7, {&a, &b});
  EXPECT_EQ(m1.seen(), 1000u);
  EXPECT_EQ(m1.samples().size(), 50u);
  EXPECT_EQ(m1.samples(), m2.samples());  // same seed, same survivors
  // Survivors come from the union of the parts' retained samples.
  for (const double v : m1.samples()) {
    const bool from_a = v >= 0 && v < 500;
    const bool from_b = v >= 1000 && v < 1500;
    EXPECT_TRUE(from_a || from_b) << v;
  }
  // A different seed draws a different subset.
  const analysis::Reservoir m3 = analysis::Reservoir::merged(50, 8, {&a, &b});
  EXPECT_NE(m1.samples(), m3.samples());
}

TEST(ReservoirMergedTest, SinglePartIsExactCopy) {
  analysis::Reservoir a(100, 1);
  for (int i = 0; i < 60; ++i) a.add(i * 2);
  const analysis::Reservoir merged = analysis::Reservoir::merged(100, 7, {&a});
  EXPECT_EQ(merged.seen(), a.seen());
  EXPECT_EQ(merged.samples(), a.samples());
}

/// The merge as first written: key every retained sample, stable-sort all
/// of them by key descending, keep the first `capacity` values. Reservoir::
/// merged must give exactly this output.
std::vector<double> stable_sort_merge(std::size_t capacity, std::uint64_t seed,
                                      const std::vector<const analysis::Reservoir*>& parts) {
  std::vector<double> out;
  std::size_t total = 0;
  for (const analysis::Reservoir* p : parts) {
    if (p != nullptr) total += p->samples().size();
  }
  if (total <= capacity) {
    for (const analysis::Reservoir* p : parts) {
      if (p != nullptr) out.insert(out.end(), p->samples().begin(), p->samples().end());
    }
    return out;
  }
  std::vector<std::pair<double, double>> keyed;  // {key, value}
  crypto::SecureRandom key_rng(seed);
  for (const analysis::Reservoir* p : parts) {
    if (p == nullptr || p->samples().empty()) continue;
    const double weight = static_cast<double>(p->seen()) /
                          static_cast<double>(p->samples().size());
    for (double v : p->samples()) {
      double u = key_rng.uniform_real();
      if (u <= 0.0) u = std::numeric_limits<double>::min();
      keyed.push_back({std::log(u) / weight, v});
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < capacity; ++i) out.push_back(keyed[i].second);
  return out;
}

TEST(ReservoirMergedTest, MatchesStableSortOracle) {
  crypto::SecureRandom rng(2011);
  for (int round = 0; round < 120; ++round) {
    // Up to 8 parts: some null, some empty, some never full, some that saw
    // many times their capacity (so their samples carry large weights).
    const std::size_t num_parts = 1 + rng.uniform(8);
    std::vector<std::unique_ptr<analysis::Reservoir>> owned;
    std::vector<const analysis::Reservoir*> parts;
    std::size_t total = 0;
    for (std::size_t i = 0; i < num_parts; ++i) {
      if (rng.uniform(6) == 0) {
        parts.push_back(nullptr);
        continue;
      }
      const std::size_t cap = 1 + rng.uniform(60);
      auto r = std::make_unique<analysis::Reservoir>(cap, 100 + round * 8 + i);
      const std::size_t n = rng.uniform(4) == 0 ? 0 : rng.uniform(cap * 20);
      // Few distinct values, so equal values from different parts meet.
      for (std::size_t k = 0; k < n; ++k) r->add(static_cast<double>(rng.uniform(50)));
      total += r->samples().size();
      parts.push_back(r.get());
      owned.push_back(std::move(r));
    }
    std::vector<std::size_t> capacities = {1, total + 1, 1 + rng.uniform(total + 1)};
    if (total > 0) {
      capacities.push_back(total);
      capacities.push_back(total - 1);
    }
    // Small capacities make the merge's 2x-capacity buffer fill and
    // compact several times.
    if (total >= 2) {
      capacities.push_back(total / 5);
      capacities.push_back(total / 2 - 1);
    }
    for (const std::size_t capacity : capacities) {
      if (capacity == 0) continue;  // Reservoir capacity is at least 1
      const std::uint64_t seed = 7 + static_cast<std::uint64_t>(round);
      const analysis::Reservoir m = analysis::Reservoir::merged(capacity, seed, parts);
      ASSERT_EQ(m.samples(), stable_sort_merge(capacity, seed, parts))
          << "round " << round << ", capacity " << capacity << " of " << total;
    }
  }

  // The best keys sit in the last part: it saw 1000 times what it kept, so
  // its samples weigh 1000 against 1 for the three never-full parts before
  // it, whose keys fill the merge's buffer first and must then give way.
  std::vector<std::unique_ptr<analysis::Reservoir>> owned;
  std::vector<const analysis::Reservoir*> parts;
  for (std::size_t i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<analysis::Reservoir>(100, 50 + i));
    for (int k = 0; k < 100; ++k) owned.back()->add(static_cast<double>(k));
  }
  owned.push_back(std::make_unique<analysis::Reservoir>(40, 53));
  for (int k = 0; k < 40000; ++k) owned.back()->add(1000.0 + k);
  for (const auto& r : owned) parts.push_back(r.get());
  for (const std::size_t capacity : {1, 7, 20, 40, 41, 100, 339}) {
    const analysis::Reservoir m = analysis::Reservoir::merged(capacity, 99, parts);
    ASSERT_EQ(m.samples(), stable_sort_merge(capacity, 99, parts))
        << "last part best, capacity " << capacity;
  }

  // Twelve parts whose weights rise and fall (1 to 400 stream items per
  // sample), so each part's rejection threshold differs from the last
  // one's; capacities far below the 6,000 samples make the bar move many
  // times within every part.
  owned.clear();
  parts.clear();
  const std::size_t weights[] = {1, 50, 2, 400, 1, 7, 300, 3, 1, 120, 9, 1};
  for (std::size_t i = 0; i < 12; ++i) {
    owned.push_back(std::make_unique<analysis::Reservoir>(500, 60 + i));
    for (std::size_t k = 0; k < 500 * weights[i]; ++k) {
      owned.back()->add(static_cast<double>(1000 * i + k % 1000));
    }
    parts.push_back(owned.back().get());
  }
  for (const std::size_t capacity : {1, 3, 10, 64, 500, 2999}) {
    for (const std::uint64_t seed : {5u, 6u, 7u}) {
      const analysis::Reservoir m = analysis::Reservoir::merged(capacity, seed, parts);
      ASSERT_EQ(m.samples(), stable_sort_merge(capacity, seed, parts))
          << "unequal weights, capacity " << capacity << ", seed " << seed;
    }
  }
}

TEST(ChannelPartitionTest, CoversAllChannelsAndSharesSumToOne) {
  const workload::ChannelPartition part(200, 0.9, 8);
  EXPECT_EQ(part.num_channels(), 200u);
  EXPECT_EQ(part.shards(), 8u);
  std::size_t covered = 0;
  double total_share = 0;
  for (std::size_t s = 0; s < part.shards(); ++s) {
    covered += part.members(s).size();
    total_share += part.share(s);
    for (const std::size_t ch : part.members(s)) {
      EXPECT_EQ(part.shard_of(ch), s);
    }
  }
  EXPECT_EQ(covered, 200u);
  EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST(ChannelPartitionTest, SnakeOrderBalancesPopularity) {
  // With a strong Zipf skew, snake dealing keeps shard mass within a small
  // factor — no shard hoards all the popular channels.
  const workload::ChannelPartition part(64, 1.0, 4);
  double lo = 1.0, hi = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    lo = std::min(lo, part.share(s));
    hi = std::max(hi, part.share(s));
  }
  EXPECT_LT(hi / lo, 2.0);
}

TEST(ChannelPartitionTest, SampleStaysInsideShardAndFollowsZipf) {
  const workload::ChannelPartition part(20, 0.9, 3);
  crypto::SecureRandom rng(7);
  std::vector<std::size_t> counts(20, 0);
  for (int i = 0; i < 30000; ++i) {
    const std::size_t shard = i % 3;
    const std::size_t ch = part.sample(shard, rng);
    EXPECT_EQ(part.shard_of(ch), shard);
    ++counts[ch];
  }
  for (std::size_t s = 0; s < 3; ++s) {
    // Within a shard, a more popular channel is sampled at least as often
    // as the shard's least popular one (10000 draws each: noise is small
    // next to the Zipf gap between a shard's best and worst rank).
    const auto& m = part.members(s);
    EXPECT_GT(counts[m.front()], counts[m.back()]);
  }
}

TEST(ChannelPartitionTest, ShardsEqualChannelsGivesSingletons) {
  const workload::ChannelPartition part(4, 0.9, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(part.members(s).size(), 1u);
    crypto::SecureRandom rng(1);
    EXPECT_EQ(part.sample(s, rng), part.members(s)[0]);
  }
}

}  // namespace
}  // namespace p2pdrm::sim
