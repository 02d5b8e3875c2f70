// Overload protection: the bounded server queue with priority admission
// control (ServiceQueue), the client-side retry budget (TokenBucket) and
// per-destination CircuitBreaker, and the end-to-end behavior of a deployed
// farm at saturation — fresh logins are shed with BUSY while renewals and
// SWITCH rounds keep completing, and shedding is never silent.
#include <gtest/gtest.h>

#include "client_ops.h"
#include "net/overload.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;
using util::SimTime;

// ---------------------------------------------------------------- ServiceQueue

TEST(ServiceQueueTest, SingleWorkerFifoWaitMath) {
  OverloadPolicy policy;
  policy.workers = 1;
  ServiceQueue q(policy);
  const SimTime service = 10 * kMillisecond;

  // Three arrivals at t=0: the first starts immediately, the rest wait for
  // the single worker in FIFO order.
  EXPECT_EQ(q.admit(0, service, false).wait, 0);
  EXPECT_EQ(q.admit(0, service, false).wait, service);
  EXPECT_EQ(q.admit(0, service, false).wait, 2 * service);
  EXPECT_EQ(q.admitted(), 3u);
  EXPECT_EQ(q.shed(), 0u);

  // Two requests are still waiting at t=0; by the time the last one has
  // started service the queue is empty again.
  EXPECT_EQ(q.depth(0), 2u);
  EXPECT_EQ(q.depth(2 * service), 0u);

  // A late arrival after the backlog drained starts immediately.
  EXPECT_EQ(q.admit(4 * service, service, false).wait, 0);
}

TEST(ServiceQueueTest, MultipleWorkersDrainInParallel) {
  OverloadPolicy policy;
  policy.workers = 2;
  ServiceQueue q(policy);
  const SimTime service = 10 * kMillisecond;

  EXPECT_EQ(q.admit(0, service, false).wait, 0);
  EXPECT_EQ(q.admit(0, service, false).wait, 0);  // second worker
  EXPECT_EQ(q.admit(0, service, false).wait, service);
}

TEST(ServiceQueueTest, HardCapacityShedsEverything) {
  OverloadPolicy policy;
  policy.workers = 1;
  policy.queue_capacity = 2;
  ServiceQueue q(policy);
  const SimTime service = 10 * kMillisecond;

  // First admission enters service (depth 0); two more queue up.
  EXPECT_TRUE(q.admit(0, service, false).accepted);
  EXPECT_TRUE(q.admit(0, service, false).accepted);
  EXPECT_TRUE(q.admit(0, service, false).accepted);
  // Depth is now at the hard bound: even protected requests are shed.
  const ServiceQueue::Decision d = q.admit(0, service, /*sheddable=*/false);
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.depth, 2u);
  EXPECT_GT(d.retry_after, 0);
  EXPECT_EQ(q.shed(), 1u);
  // Once the backlog drains, admissions resume.
  EXPECT_TRUE(q.admit(3 * service, service, false).accepted);
}

TEST(ServiceQueueTest, HighWaterShedsOnlySheddable) {
  OverloadPolicy policy;
  policy.workers = 1;
  policy.high_water = 1;
  ServiceQueue q(policy);
  const SimTime service = 10 * kMillisecond;

  EXPECT_TRUE(q.admit(0, service, /*sheddable=*/true).accepted);   // in service
  EXPECT_TRUE(q.admit(0, service, /*sheddable=*/true).accepted);   // queued
  // Depth 1 == high water: fresh logins are shed...
  EXPECT_FALSE(q.admit(0, service, /*sheddable=*/true).accepted);
  // ...but renewals/SWITCH still queue (capacity is unbounded here).
  EXPECT_TRUE(q.admit(0, service, /*sheddable=*/false).accepted);
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.admitted(), 3u);
}

TEST(ServiceQueueTest, RetryAfterGrowsWithBacklog) {
  OverloadPolicy policy;
  policy.workers = 1;
  policy.high_water = 1;
  policy.busy_retry_after = 500 * kMillisecond;
  ServiceQueue q(policy);

  // Shallow backlog: the floor hint dominates.
  const SimTime tiny = 1 * kMillisecond;
  ASSERT_TRUE(q.admit(0, tiny, true).accepted);
  ASSERT_TRUE(q.admit(0, tiny, true).accepted);
  const ServiceQueue::Decision shallow = q.admit(0, tiny, true);
  ASSERT_FALSE(shallow.accepted);
  EXPECT_EQ(shallow.retry_after, policy.busy_retry_after);

  // Deep backlog of slow requests: the drain estimate dominates and grows
  // with depth — a deeper queue pushes retries further out.
  OverloadPolicy deep_policy = policy;
  deep_policy.high_water = 8;
  ServiceQueue deep(deep_policy);
  const SimTime slow = 1 * kSecond;
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(deep.admit(0, slow, true).accepted);
  const ServiceQueue::Decision d = deep.admit(0, slow, true);
  ASSERT_FALSE(d.accepted);
  EXPECT_EQ(d.depth, 8u);
  EXPECT_EQ(d.retry_after, 9 * kSecond);  // (depth/workers + 1) * service
  EXPECT_GT(d.retry_after, shallow.retry_after);
}

// ----------------------------------------------------------------- TokenBucket

TEST(TokenBucketTest, SpendsAndRefillsContinuously) {
  TokenBucket bucket(/*capacity=*/2, /*refill_per_second=*/1.0);
  EXPECT_FALSE(bucket.unlimited());
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));  // budget dry
  // Half a second refills half a token — still not enough for a whole one.
  EXPECT_FALSE(bucket.try_take(500 * kMillisecond));
  // At one second the half token grew past 1.0.
  EXPECT_TRUE(bucket.try_take(kSecond));
  EXPECT_FALSE(bucket.try_take(kSecond));
}

TEST(TokenBucketTest, RefillCapsAtCapacity) {
  TokenBucket bucket(2, 1.0);
  ASSERT_TRUE(bucket.try_take(0));
  // An hour of refill cannot exceed capacity: two takes, not 3600.
  EXPECT_TRUE(bucket.try_take(util::kHour));
  EXPECT_TRUE(bucket.try_take(util::kHour));
  EXPECT_FALSE(bucket.try_take(util::kHour));
}

TEST(TokenBucketTest, ZeroCapacityIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0));
}

// -------------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAtThresholdAndFastFails) {
  CircuitBreaker breaker({/*failure_threshold=*/2, /*cooldown=*/kSecond});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(0));
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);  // 1 < threshold
  breaker.record_failure(10);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allow(10));
  EXPECT_FALSE(breaker.allow(10 + kSecond / 2));  // cooldown not elapsed
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreaker breaker({2, kSecond});
  breaker.record_failure(0);
  breaker.record_success();
  breaker.record_failure(0);  // 1 again, not 2: no open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreakerTest, SingleProbeDecidesAfterCooldown) {
  CircuitBreaker breaker({2, kSecond});
  breaker.record_failure(0);
  breaker.record_failure(0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Cooldown elapses: exactly one probe goes through, the rest fast-fail.
  EXPECT_TRUE(breaker.allow(kSecond));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(kSecond));

  // Probe fails: a full new cooldown.
  breaker.record_failure(kSecond);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow(kSecond + kSecond / 2));

  // Second probe succeeds: the breaker re-closes and traffic flows again.
  EXPECT_TRUE(breaker.allow(2 * kSecond));
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.recloses(), 1u);
  EXPECT_TRUE(breaker.allow(2 * kSecond));
}

TEST(CircuitBreakerTest, ZeroThresholdDisables) {
  CircuitBreaker breaker;
  for (int i = 0; i < 10; ++i) breaker.record_failure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_EQ(breaker.opens(), 0u);
}

// ------------------------------------------------------------------ deployment

DeploymentConfig overload_config() {
  DeploymentConfig cfg;
  cfg.seed = 2024;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  // Slow servers so a burst of logins visibly saturates the single worker.
  cfg.processing.light = 10 * kMillisecond;
  cfg.processing.heavy = 100 * kMillisecond;
  cfg.overload.workers = 1;
  cfg.overload.queue_capacity = 64;  // generous: only high-water shedding
  cfg.overload.high_water = 3;
  cfg.overload.busy_retry_after = 200 * kMillisecond;
  return cfg;
}

TEST(OverloadDeploymentTest, SaturationShedsFreshLoginsButServesRenewals) {
  Deployment d(overload_config());
  d.add_user("alice@example.com", "pw-a");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "news", region);
  d.start_channel_server(1);

  // Alice establishes a session before the storm.
  AsyncClient& alice = d.add_client("alice@example.com", "pw-a", region);
  ASSERT_EQ(login(d, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d, alice, 1), DrmError::kOk);
  // Advance into the renewal window (10 min ticket lifetime, 3 min window)
  // so the mid-storm renewal below is legal.
  d.run_for(8 * kMinute);

  // A storm of fresh viewers all hits LOGIN at the same instant — several
  // times the single UM worker's capacity.
  constexpr int kStorm = 10;
  std::vector<AsyncClient*> storm;
  for (int i = 0; i < kStorm; ++i) {
    const std::string email = "storm" + std::to_string(i) + "@example.com";
    ASSERT_TRUE(d.add_user(email, "pw"));
    storm.push_back(&d.add_client(email, "pw", region));
  }
  int completed = 0;
  int ok = 0;
  for (AsyncClient* c : storm) {
    c->login([&completed, &ok](DrmError err) {
      ++completed;
      if (err == DrmError::kOk) ++ok;
    });
  }

  // Mid-storm, Alice's protected renewal (SWITCH rounds) completes: session
  // continuity beats new admissions.
  EXPECT_EQ(renew(d, alice), DrmError::kOk);

  // Drain until every storm login resolved. BUSY-deferred resends let shed
  // viewers in as the backlog clears, so all of them eventually succeed.
  const SimTime deadline = d.sim().now() + 10 * kMinute;
  while (completed < kStorm && d.sim().now() < deadline && d.sim().step()) {
  }
  ASSERT_EQ(completed, kStorm);
  EXPECT_EQ(ok, kStorm);

  // The storm was shed with BUSY — and never silently: every shed request
  // produced exactly one BUSY envelope, and (with a loss-free network) every
  // BUSY reached a client.
  const obs::Counter* busy_sent = d.registry().find_counter("server.busy_sent");
  ASSERT_NE(busy_sent, nullptr);
  EXPECT_GT(busy_sent->value(), 0u);
  std::uint64_t shed_logins = 0;
  for (const auto& [label, counter] : d.registry().family("server.shed")) {
    EXPECT_TRUE(label == "login1-req" || label == "login2-req")
        << "unexpected shed kind: " << label;
    shed_logins += counter->value();
  }
  EXPECT_EQ(shed_logins, busy_sent->value());
  std::uint64_t busy_received = 0;
  for (const auto& client : d.clients()) busy_received += client->busy_received();
  EXPECT_EQ(busy_received, busy_sent->value());
  EXPECT_EQ(alice.busy_received(), 0u);  // the protected tier never saw a BUSY
}

TEST(OverloadDeploymentTest, BreakerOpensOnTimeoutsAndReclosesAfterProbe) {
  DeploymentConfig cfg;
  cfg.seed = 2024;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.request_timeout = 200 * kMillisecond;
  cfg.max_retries = 1;
  cfg.client_breaker_threshold = 2;
  cfg.client_breaker_cooldown = 5 * kSecond;
  Deployment d(cfg);
  d.add_user("alice@example.com", "pw-a");
  const geo::RegionId region = d.geo().region_at(0);

  AsyncClient& alice = d.add_client("alice@example.com", "pw-a", region);

  // Black-hole the User Manager's link: LOGIN1 times out while the
  // redirection service stays healthy.
  LinkConfig lossy = cfg.default_link;
  lossy.loss = 1.0;
  d.network().set_link(Deployment::kUserManagerNode, lossy);

  // Two timed-out logins reach the failure threshold.
  EXPECT_EQ(login(d, alice), DrmError::kNoCapacity);
  EXPECT_EQ(login(d, alice), DrmError::kNoCapacity);
  const CircuitBreaker* breaker = alice.breaker(Deployment::kUserManagerNode);
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker->opens(), 1u);

  // While open, requests fast-fail without touching the network.
  const std::uint64_t retransmits_before = alice.retransmits();
  EXPECT_EQ(login(d, alice), DrmError::kNoCapacity);
  EXPECT_GE(alice.breaker_fast_fails(), 1u);
  EXPECT_EQ(alice.retransmits(), retransmits_before);

  // The UM heals; after the cooldown the next login is the single probe,
  // it succeeds, and the breaker re-closes.
  d.network().set_link(Deployment::kUserManagerNode, cfg.default_link);
  d.run_for(cfg.client_breaker_cooldown + kSecond);
  EXPECT_EQ(login(d, alice), DrmError::kOk);
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker->recloses(), 1u);
  EXPECT_TRUE(alice.logged_in());
}

TEST(OverloadDeploymentTest, RetryBudgetDryFailsInsteadOfRetryStorm) {
  DeploymentConfig cfg;
  cfg.seed = 2024;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.request_timeout = 200 * kMillisecond;
  cfg.max_retries = 8;
  cfg.client_retry_budget = 2;  // only two retransmissions allowed
  cfg.client_retry_budget_refill = 0.01;
  Deployment d(cfg);
  d.add_user("alice@example.com", "pw-a");
  const geo::RegionId region = d.geo().region_at(0);

  AsyncClient& alice = d.add_client("alice@example.com", "pw-a", region);
  LinkConfig lossy = cfg.default_link;
  lossy.loss = 1.0;
  d.network().set_link(Deployment::kUserManagerNode, lossy);

  EXPECT_EQ(login(d, alice), DrmError::kNoCapacity);
  // The budget, not the per-request retry cap, ended the attempt: out of 8
  // allowed retransmissions only the budgeted 2 went out.
  EXPECT_EQ(alice.retry_budget_exhaustions(), 1u);
  EXPECT_EQ(alice.retransmits(), 2u);
}

}  // namespace
}  // namespace p2pdrm::net
