// The sharded engine's tentpole guarantee: output is a pure function of
// (config, seed, shards) — the worker thread count buys wall-clock only and
// never changes a single output byte. Plus the supporting pieces: config
// validation, deterministic reservoir merging, and the channel partition.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/export.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/macro_sim.h"
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
  EXPECT_EQ(r.runtime.worker_busy_seconds.size(), r.threads_used);
  EXPECT_GE(r.runtime.window_wall_seconds, 0.0);
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
