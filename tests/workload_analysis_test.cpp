#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"
#include "workload/workload.h"

namespace p2pdrm {
namespace {

using util::kHour;
using util::kMinute;
using util::kSecond;

// --- workload ---

TEST(DiurnalProfileTest, TvProfileShape) {
  const workload::DiurnalProfile p = workload::tv_profile();
  // Prime time beats pre-dawn by a wide margin.
  EXPECT_GT(p.intensity(20 * kHour), 5 * p.intensity(4 * kHour));
  // Interpolation is continuous-ish: midpoints sit between neighbours.
  const double h19 = p.intensity(19 * kHour);
  const double h20 = p.intensity(20 * kHour);
  const double mid = p.intensity(19 * kHour + 30 * kMinute);
  EXPECT_GT(mid, std::min(h19, h20) - 1e-9);
  EXPECT_LT(mid, std::max(h19, h20) + 1e-9);
}

TEST(DiurnalProfileTest, DailyFactorsApply) {
  workload::DiurnalProfile p = workload::tv_profile();
  const double monday = p.intensity(20 * kHour);            // day 0
  const double saturday = p.intensity(5 * util::kDay + 20 * kHour);  // day 5
  EXPECT_NEAR(saturday / monday, 1.15, 1e-9);
}

TEST(DiurnalProfileTest, MaxIntensity) {
  const workload::DiurnalProfile p = workload::tv_profile();
  EXPECT_NEAR(p.max_intensity(), 1.0 * 1.15, 1e-9);
}

TEST(ArrivalProcessTest, RateFollowsProfile) {
  const workload::DiurnalProfile profile = workload::tv_profile();
  const workload::ArrivalProcess arrivals(profile, 10.0);
  EXPECT_GT(arrivals.rate_at(20 * kHour), arrivals.rate_at(4 * kHour));
  EXPECT_LE(arrivals.rate_at(20 * kHour), 10.0 + 1e-9);
}

TEST(ArrivalProcessTest, ArrivalsStrictlyIncrease) {
  const workload::ArrivalProcess arrivals(workload::tv_profile(), 5.0);
  crypto::SecureRandom rng(1);
  util::SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    const util::SimTime next = arrivals.next(t, rng);
    EXPECT_GT(next, t);
    t = next;
  }
}

TEST(ArrivalProcessTest, EmpiricalRateMatchesConfigured) {
  // Count arrivals in a peak-hour window; expect roughly peak_rate * span.
  const workload::ArrivalProcess arrivals(workload::tv_profile(), 2.0);
  crypto::SecureRandom rng(2);
  util::SimTime t = 20 * kHour;
  int count = 0;
  while (true) {
    t = arrivals.next(t, rng);
    if (t > 21 * kHour) break;
    ++count;
  }
  // rate at 20h ≈ 2.0/s (peak of day 0 ≈ 1.0 intensity / 1.15 max) ≈ 1.74/s.
  const double expected = 2.0 * (1.0 / 1.15) * 3600;
  EXPECT_NEAR(count, expected, expected * 0.1);
}

TEST(ArrivalProcessTest, RejectsBadRates) {
  EXPECT_THROW(workload::ArrivalProcess(workload::tv_profile(), 0.0),
               std::invalid_argument);
}

TEST(SessionModelTest, DurationsRespectMinimumAndMedian) {
  workload::SessionModel model;
  model.median_duration = 20 * kMinute;
  model.duration_sigma = 1.0;
  crypto::SecureRandom rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i) {
    const util::SimTime d = model.sample_duration(rng);
    EXPECT_GE(d, model.min_duration);
    samples.push_back(static_cast<double>(d));
  }
  EXPECT_NEAR(analysis::median(samples), static_cast<double>(20 * kMinute),
              static_cast<double>(kMinute));
}

TEST(SessionModelTest, SwitchGapsExponential) {
  workload::SessionModel model;
  model.mean_switch_interval = 10 * kMinute;
  crypto::SecureRandom rng(4);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(model.sample_switch_gap(rng));
  }
  EXPECT_NEAR(sum / n, static_cast<double>(10 * kMinute),
              static_cast<double>(15 * kSecond));
}

TEST(ZipfChannelsTest, ProbabilitiesSumToOne) {
  const workload::ZipfChannels zipf(200, 0.9);
  double total = 0;
  for (std::size_t i = 0; i < zipf.size(); ++i) total += zipf.probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_THROW(zipf.probability(200), std::out_of_range);
}

TEST(ZipfChannelsTest, RankOneMostPopular) {
  const workload::ZipfChannels zipf(50, 1.0);
  EXPECT_GT(zipf.probability(0), zipf.probability(1));
  EXPECT_GT(zipf.probability(1), zipf.probability(49));
  // s=1.0: p(0)/p(9) = 10.
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(9), 10.0, 1e-6);
}

TEST(ZipfChannelsTest, EmpiricalSamplingMatches) {
  const workload::ZipfChannels zipf(10, 1.0);
  crypto::SecureRandom rng(5);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.probability(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[9]) / n, zipf.probability(9), 0.01);
}

TEST(ZipfChannelsTest, RejectsEmpty) {
  EXPECT_THROW(workload::ZipfChannels(0, 1.0), std::invalid_argument);
}

TEST(FlashCrowdTest, ArrivalsInsideRamp) {
  workload::FlashCrowd crowd;
  crowd.start = 100 * kSecond;
  crowd.extra_sessions = 500;
  crowd.ramp = 60 * kSecond;
  crypto::SecureRandom rng(6);
  const auto arrivals = crowd.arrivals(rng);
  ASSERT_EQ(arrivals.size(), 500u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  for (util::SimTime t : arrivals) {
    EXPECT_GE(t, crowd.start);
    EXPECT_LE(t, crowd.start + crowd.ramp);
  }
}

// --- analysis ---

TEST(StatsTest, QuantileBasics) {
  EXPECT_DOUBLE_EQ(analysis::quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(analysis::quantile({5}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(analysis::median({1, 2, 3, 4, 5}), 3.0);
  EXPECT_DOUBLE_EQ(analysis::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(analysis::quantile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(analysis::quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
}

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(analysis::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(analysis::mean({1, 2, 3}), 2.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {10, 20, 30, 40};
  EXPECT_NEAR(*analysis::pearson(x, y), 1.0, 1e-12);
  const std::vector<double> neg = {40, 30, 20, 10};
  EXPECT_NEAR(*analysis::pearson(x, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonEdgeCases) {
  EXPECT_FALSE(analysis::pearson({1, 2}, {1, 2, 3}).has_value());
  EXPECT_FALSE(analysis::pearson({1}, {1}).has_value());
  EXPECT_FALSE(analysis::pearson({2, 2, 2}, {1, 2, 3}).has_value());
}

TEST(StatsTest, PearsonIndependentNearZero) {
  crypto::SecureRandom rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.uniform_real());
    y.push_back(rng.uniform_real());
  }
  EXPECT_LT(std::abs(*analysis::pearson(x, y)), 0.05);
}

TEST(ReservoirTest, KeepsAllWhenUnderCapacity) {
  analysis::Reservoir r(100, 1);
  for (int i = 0; i < 50; ++i) r.add(i);
  EXPECT_EQ(r.samples().size(), 50u);
  EXPECT_EQ(r.seen(), 50u);
}

TEST(ReservoirTest, BoundedAndUnbiased) {
  analysis::Reservoir r(1000, 2);
  for (int i = 0; i < 100000; ++i) r.add(i % 1000);
  EXPECT_EQ(r.samples().size(), 1000u);
  EXPECT_EQ(r.seen(), 100000u);
  // Uniform 0..999: median ≈ 500.
  EXPECT_NEAR(r.median(), 500.0, 50.0);
}

TEST(ReservoirTest, StorageReservedOnFirstSampleOnly) {
  // A reservoir that never sees a sample holds no storage; the first sample
  // reserves exactly the capacity, which never grows after.
  analysis::Reservoir r(250, 4);
  EXPECT_EQ(r.samples().capacity(), 0u);
  r.add(1.0);
  EXPECT_EQ(r.samples().capacity(), 250u);
  for (int i = 0; i < 2500; ++i) r.add(i);
  EXPECT_EQ(r.samples().size(), 250u);
  EXPECT_EQ(r.samples().capacity(), 250u);
}

TEST(ReservoirTest, CopyKeepsReplacingAsTheOriginal) {
  // Copied after replacement has begun, a reservoir carries on with its
  // own generator in the original's state: fed the same further values,
  // the two keep the same samples. So does one assigned over another.
  analysis::Reservoir r(64, 6);
  for (int i = 0; i < 1000; ++i) r.add(i);
  analysis::Reservoir copy(r);
  analysis::Reservoir assigned(8, 99);
  assigned.add(-1.0);
  assigned = r;
  for (int i = 1000; i < 5000; ++i) {
    r.add(i);
    copy.add(i);
    assigned.add(i);
  }
  EXPECT_EQ(copy.samples(), r.samples());
  EXPECT_EQ(copy.seen(), r.seen());
  EXPECT_EQ(assigned.samples(), r.samples());
  EXPECT_EQ(assigned.seen(), r.seen());
  // The values added after the copy did replace samples.
  EXPECT_GT(*std::max_element(r.samples().begin(), r.samples().end()), 999.0);
}

TEST(ReservoirTest, EmptyQuantileIsZero) {
  const analysis::Reservoir r(10, 3);
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.median(), 0.0);
}

}  // namespace
}  // namespace p2pdrm
