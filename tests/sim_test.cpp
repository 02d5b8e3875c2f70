#include <gtest/gtest.h>

#include "sim/latency.h"
#include "sim/macro_sim.h"
#include "sim/simulation.h"

namespace p2pdrm::sim {
namespace {

using util::kMillisecond;
using util::kMinute;
using util::kSecond;

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulationTest, SameTimeFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.schedule(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 15);
}

TEST(SimulationTest, RunUntilStopsAtLimit) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulationTest, RejectsPastScheduling) {
  Simulation sim;
  sim.schedule(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(-1, [] {}), std::invalid_argument);
}

TEST(SimulationTest, ClockViewTracksSimTime) {
  Simulation sim;
  const util::Clock& clock = sim.clock();
  util::SimTime seen = -1;
  sim.schedule(42, [&] { seen = clock.now(); });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(LatencyModelTest, SamplesRespectFloorAndCap) {
  LatencyModel model;
  model.floor = 50 * kMillisecond;
  model.cap = 2 * kSecond;
  crypto::SecureRandom rng(1);
  for (int i = 0; i < 2000; ++i) {
    const util::SimTime rtt = model.sample_rtt(rng);
    EXPECT_GE(rtt, model.floor);
    EXPECT_LE(rtt, model.cap);
  }
}

TEST(LatencyModelTest, MedianRoughlyAsConfigured) {
  LatencyModel model;
  model.floor = 0;
  model.median = 200 * kMillisecond;
  model.sigma = 0.5;
  crypto::SecureRandom rng(2);
  std::vector<util::SimTime> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(model.sample_rtt(rng));
  std::sort(samples.begin(), samples.end());
  const double median = static_cast<double>(samples[samples.size() / 2]);
  EXPECT_NEAR(median, 200 * kMillisecond, 20 * kMillisecond);
}

TEST(QueueStationTest, NoQueueingWhenIdle) {
  QueueStation station(2);
  EXPECT_EQ(station.submit(100, 10), 110);
  EXPECT_EQ(station.submit(200, 10), 210);
  EXPECT_EQ(station.processed(), 2u);
  EXPECT_EQ(station.busy_time(), 20);
}

TEST(QueueStationTest, ParallelServers) {
  QueueStation station(2);
  EXPECT_EQ(station.submit(0, 100), 100);
  EXPECT_EQ(station.submit(0, 100), 100);   // second server
  EXPECT_EQ(station.submit(0, 100), 200);   // queued behind the first free
}

TEST(QueueStationTest, FifoBacklog) {
  QueueStation station(1);
  EXPECT_EQ(station.submit(0, 50), 50);
  EXPECT_EQ(station.submit(10, 50), 100);
  EXPECT_EQ(station.submit(20, 50), 150);
}

TEST(QueueStationTest, UtilizationAccounting) {
  QueueStation station(2);
  station.submit(0, 100);
  station.submit(0, 100);
  EXPECT_DOUBLE_EQ(station.utilization(200), 0.5);
  EXPECT_DOUBLE_EQ(station.utilization(0), 0.0);
}

TEST(QueueStationTest, RejectsZeroServers) {
  EXPECT_THROW(QueueStation(0), std::invalid_argument);
}

TEST(QueueStationTest, SingleServerMatchesLindleyRecursion) {
  // Reference model: W(n+1) = max(0, W(n) + S(n) - A(n+1)+A(n)) — the exact
  // single-server FIFO waiting-time recursion.
  crypto::SecureRandom rng(99);
  QueueStation station(1);
  util::SimTime arrival = 0;
  util::SimTime prev_depart = 0;
  for (int i = 0; i < 2000; ++i) {
    arrival += static_cast<util::SimTime>(rng.uniform(100)) + 1;
    const util::SimTime service = static_cast<util::SimTime>(rng.uniform(80)) + 1;
    const util::SimTime expected_start = std::max(arrival, prev_depart);
    const util::SimTime depart = station.submit(arrival, service);
    ASSERT_EQ(depart, expected_start + service) << "job " << i;
    prev_depart = depart;
  }
}

TEST(QueueStationTest, MultiServerNeverBeatsMoreServers) {
  // Monotonicity: for the identical arrival/service sequence, a larger farm
  // never produces a later departure for any job.
  for (int trial = 0; trial < 3; ++trial) {
    crypto::SecureRandom rng(200 + trial);
    std::vector<std::pair<util::SimTime, util::SimTime>> jobs;
    util::SimTime t = 0;
    for (int i = 0; i < 500; ++i) {
      t += static_cast<util::SimTime>(rng.uniform(20)) + 1;
      jobs.push_back({t, static_cast<util::SimTime>(rng.uniform(100)) + 1});
    }
    QueueStation two(2), four(4);
    for (const auto& [arrival, service] : jobs) {
      const util::SimTime d2 = two.submit(arrival, service);
      const util::SimTime d4 = four.submit(arrival, service);
      ASSERT_LE(d4, d2);
    }
  }
}

// --- macro sim (scaled down so it runs in test time) ---

MacroSimConfig small_config() {
  MacroSimConfig cfg;
  cfg.days = 2;
  cfg.peak_concurrent = 300;
  cfg.seed = 7;
  cfg.reservoir_per_hour = 500;
  cfg.reservoir_cdf = 20000;
  return cfg;
}

TEST(MacroSimTest, ProducesSamplesForAllRounds) {
  const MacroSimResult result = run_macro_sim(small_config());
  EXPECT_GT(result.sessions, 1000u);
  for (std::size_t r = 0; r < core::kNumRounds; ++r) {
    EXPECT_GT(result.rounds[r].count, 0u) << to_string(static_cast<core::Round>(r));
  }
  EXPECT_GT(result.ct_renewals, 0u);
  EXPECT_GT(result.ut_renewals, 0u);
}

TEST(MacroSimTest, DiurnalConcurrencyShape) {
  const MacroSimResult result = run_macro_sim(small_config());
  ASSERT_EQ(result.hourly_concurrency.size(), 48u);
  // Evening peak well above pre-dawn trough on both days.
  const double peak = std::max(result.hourly_concurrency[20], result.hourly_concurrency[44]);
  const double trough = std::min(result.hourly_concurrency[4], result.hourly_concurrency[28]);
  EXPECT_GT(peak, 3 * trough);
  EXPECT_NEAR(result.peak_observed_concurrency, 300, 150);
}

TEST(MacroSimTest, DeterministicForSeed) {
  const MacroSimResult a = run_macro_sim(small_config());
  const MacroSimResult b = run_macro_sim(small_config());
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.rounds[0].count, b.rounds[0].count);
  EXPECT_EQ(a.round(core::Round::kJoin).peak.samples(),
            b.round(core::Round::kJoin).peak.samples());
}

TEST(MacroSimTest, LatencyUncorrelatedWithLoadWhenProvisioned) {
  // The paper's headline: manager latency is flat across the diurnal swing.
  const MacroSimResult result = run_macro_sim(small_config());
  const std::vector<double> medians =
      result.round(core::Round::kLogin2).hourly_median();
  const auto r = analysis::pearson(medians, result.hourly_concurrency);
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(std::abs(*r), 0.3);
  EXPECT_LT(result.um_utilization, 0.5);
  EXPECT_LT(result.cm_utilization, 0.5);
}

TEST(MacroSimTest, RenewalAccountingMatchesLittleLaw) {
  // Renewal volume is mechanical: a session of duration D holding a ticket
  // of lifetime T renews about D/T times. Aggregate CT renewals should be
  // within a factor-ish of (total watch time / ct lifetime).
  MacroSimConfig cfg = small_config();
  const MacroSimResult r = run_macro_sim(cfg);
  double total_watch_hours = 0;
  for (double c : r.hourly_concurrency) total_watch_hours += c;
  const double expected_ct_renewals =
      total_watch_hours * util::kHour / static_cast<double>(cfg.channel_ticket_lifetime);
  EXPECT_GT(static_cast<double>(r.ct_renewals), 0.4 * expected_ct_renewals);
  EXPECT_LT(static_cast<double>(r.ct_renewals), 1.3 * expected_ct_renewals);

  const double expected_ut_renewals =
      total_watch_hours * util::kHour / static_cast<double>(cfg.user_ticket_lifetime);
  EXPECT_GT(static_cast<double>(r.ut_renewals), 0.3 * expected_ut_renewals);
  EXPECT_LT(static_cast<double>(r.ut_renewals), 1.5 * expected_ut_renewals);
}

TEST(MacroSimTest, RoundCountsConsistent) {
  const MacroSimResult r = run_macro_sim(small_config());
  // Every SWITCH1 pairs with a SWITCH2 and every LOGIN1 with a LOGIN2, up
  // to the handful of rounds still in flight when the horizon cuts off.
  const auto near = [](std::uint64_t a, std::uint64_t b) {
    return (a > b ? a - b : b - a) <= 10;
  };
  EXPECT_TRUE(near(r.round(core::Round::kSwitch1).count,
                   r.round(core::Round::kSwitch2).count));
  EXPECT_TRUE(near(r.round(core::Round::kLogin1).count,
                   r.round(core::Round::kLogin2).count));
  // JOINs = initial joins (one per session reaching the overlay) + channel
  // switches; renewals go through SWITCH rounds but never re-join.
  EXPECT_GT(r.round(core::Round::kJoin).count, r.channel_switches);
  EXPECT_LE(r.round(core::Round::kJoin).count, r.sessions + r.channel_switches);
  EXPECT_GE(r.round(core::Round::kSwitch2).count, r.round(core::Round::kJoin).count);
}

TEST(MacroSimTest, Login2SlowerThanLogin1) {
  const MacroSimResult result = run_macro_sim(small_config());
  EXPECT_GT(result.round(core::Round::kLogin2).peak.median(),
            result.round(core::Round::kLogin1).peak.median());
}

TEST(MacroSimTest, FlashCrowdInflatesSessions) {
  MacroSimConfig with = small_config();
  workload::FlashCrowd crowd;
  crowd.start = 20 * util::kHour;
  crowd.extra_sessions = 2000;
  crowd.ramp = 2 * kMinute;
  with.flash_crowds.push_back(crowd);
  const MacroSimResult base = run_macro_sim(small_config());
  const MacroSimResult crowded = run_macro_sim(with);
  EXPECT_GE(crowded.sessions, base.sessions + 1900);
}

TEST(MacroSimTest, JoinRetriesScaleWithLoadSensitivity) {
  MacroSimConfig calm = small_config();
  calm.join_base_reject = 0.0;
  calm.join_load_sensitivity = 0.0;
  MacroSimConfig congested = small_config();
  congested.join_base_reject = 0.3;
  congested.join_load_sensitivity = 0.3;
  EXPECT_EQ(run_macro_sim(calm).join_retries, 0u);
  EXPECT_GT(run_macro_sim(congested).join_retries, 1000u);
}

TEST(MacroSimTest, RegistryHistogramsAgreeWithReservoirs) {
  // The registry's bucketed histograms are the reservoirs' replacement for
  // the Fig. 5/6 benches: same latencies, different estimator. Quantiles
  // must agree within the combined error budget — 1/16 relative from the
  // bucket midpoint plus reservoir sampling noise.
  const MacroSimResult result = run_macro_sim(small_config());
  ASSERT_NE(result.registry, nullptr);
  for (std::size_t ri = 0; ri < core::kNumRounds; ++ri) {
    const auto r = static_cast<core::Round>(ri);
    const RoundTrace& trace = result.rounds[ri];

    const obs::LatencyHistogram* all =
        result.registry->find_histogram(round_histogram_name(r));
    const obs::LatencyHistogram* peak =
        result.registry->find_histogram(split_histogram_name(r, true));
    const obs::LatencyHistogram* offpeak =
        result.registry->find_histogram(split_histogram_name(r, false));
    ASSERT_NE(all, nullptr) << to_string(r);
    ASSERT_NE(peak, nullptr) << to_string(r);
    ASSERT_NE(offpeak, nullptr) << to_string(r);

    // The histograms saw every recorded round, unsampled.
    EXPECT_EQ(all->count(), trace.count) << to_string(r);
    EXPECT_EQ(peak->count() + offpeak->count(), trace.count) << to_string(r);
    EXPECT_GE(peak->count(), trace.peak.seen()) << to_string(r);

    for (const double q : {0.5, 0.9}) {
      const double res_s = trace.peak.quantile(q);           // seconds
      const double hist_s = peak->quantile(q) * 1e-6;        // us -> s
      EXPECT_NEAR(hist_s, res_s, res_s * 0.15 + 0.001)
          << to_string(r) << " q=" << q;
    }

    // Spot-check an evening-peak hour of the per-hour series too.
    const std::size_t hour = 20;
    ASSERT_LT(hour, trace.hourly.size());
    const obs::LatencyHistogram* hourly =
        result.registry->find_histogram(hourly_histogram_name(r, hour));
    ASSERT_NE(hourly, nullptr) << to_string(r);
    if (!trace.hourly[hour].empty()) {
      const double res_s = trace.hourly[hour].median();
      EXPECT_NEAR(hourly->p50() * 1e-6, res_s, res_s * 0.15 + 0.001)
          << to_string(r);
    }
  }
}

TEST(MacroSimTest, UndersizedFarmSaturates) {
  // Ablation sanity: strip the farm down and crank the crypto cost; now
  // latency *does* track load (what the paper's design avoids).
  MacroSimConfig starved = small_config();
  starved.user_manager_servers = 1;
  starved.costs.login2 = 3 * kSecond;  // one grossly underpowered server
  const MacroSimResult result = run_macro_sim(starved);
  // Mean utilization over the whole horizon is diluted by the off-peak
  // trough; the saturation shows up at peak hours (and in the correlation).
  EXPECT_GT(result.um_utilization, 0.2);
  const auto r = analysis::pearson(
      result.round(core::Round::kLogin2).hourly_median(), result.hourly_concurrency);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(*r, 0.4);
}

}  // namespace
}  // namespace p2pdrm::sim
