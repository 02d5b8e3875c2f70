// Protocol rounds against the real service stack over links with network
// delay and per-request processing time (the macro-sim's calibrated
// service costs): the client's feedback log becomes a small-scale analogue
// of the paper's production measurements.
#include <gtest/gtest.h>

#include "client_ops.h"
#include "sim/macro_sim.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;

class ClientLatencyTest : public ::testing::Test {
 protected:
  ClientLatencyTest() : d_(make_config()) {
    d_.add_user("user@example.com", "pw");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "news", region_);
    d_.start_channel_server(1);
  }

  static DeploymentConfig make_config() {
    DeploymentConfig cfg;
    cfg.seed = 77;
    cfg.default_link.latency.floor = 40 * util::kMillisecond;
    cfg.default_link.latency.median = 100 * util::kMillisecond;
    cfg.default_link.latency.sigma = 0.4;
    // Light rounds cost what LOGIN1 does, heavy ones what LOGIN2 does.
    const sim::ServiceCosts costs;
    cfg.processing.light = costs.login1;
    cfg.processing.heavy = costs.login2;
    return cfg;
  }

  Deployment d_;
  geo::RegionId region_ = 0;
};

TEST_F(ClientLatencyTest, FeedbackLogRecordsPositiveLatencies) {
  AsyncClient& c = d_.add_client("user@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, c, 1), DrmError::kOk);

  ASSERT_GE(c.feedback_log().size(), 5u);
  for (const core::LatencySample& s : c.feedback_log()) {
    EXPECT_TRUE(s.success);
    // Every round at least crossed the network floor once.
    EXPECT_GE(s.latency, 40 * util::kMillisecond) << to_string(s.round);
    EXPECT_LT(s.latency, 10 * util::kSecond);
  }
}

TEST_F(ClientLatencyTest, RoundsOrderedInTime) {
  AsyncClient& c = d_.add_client("user@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, c, 1), DrmError::kOk);
  for (std::size_t i = 1; i < c.feedback_log().size(); ++i) {
    EXPECT_GE(c.feedback_log()[i].started, c.feedback_log()[i - 1].started);
  }
}

TEST_F(ClientLatencyTest, Login2CostsMoreThanLogin1) {
  // Aggregate over several logins: LOGIN2 carries the RSA-heavy service
  // cost, so its mean must exceed LOGIN1's (the paper's Fig. 5a ordering).
  AsyncClient& c = d_.add_client("user@example.com", "pw", region_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(login(d_, c), DrmError::kOk);
  }

  double login1_total = 0, login2_total = 0;
  int n1 = 0, n2 = 0;
  for (const core::LatencySample& s : c.feedback_log()) {
    if (s.round == core::Round::kLogin1) {
      login1_total += static_cast<double>(s.latency);
      ++n1;
    } else if (s.round == core::Round::kLogin2) {
      login2_total += static_cast<double>(s.latency);
      ++n2;
    }
  }
  ASSERT_GT(n1, 0);
  ASSERT_GT(n2, 0);
  EXPECT_GT(login2_total / n2, login1_total / n1);
}

TEST_F(ClientLatencyTest, ClockAdvancesWithTraffic) {
  AsyncClient& c = d_.add_client("user@example.com", "pw", region_);
  const util::SimTime before = d_.now();
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  EXPECT_GT(d_.now(), before);
}

TEST_F(ClientLatencyTest, ProtocolStillCorrectUnderLatency) {
  // Delay must not break any protocol invariant: challenges are still
  // fresh (2-minute budget vs sub-second RTTs), tickets verify, renewal
  // works.
  AsyncClient& c = d_.add_client("user@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, c, 1), DrmError::kOk);
  EXPECT_TRUE(c.user_ticket()->verify(d_.um_domain().keys.pub));

  d_.run_for(8 * util::kMinute);
  EXPECT_EQ(renew(d_, c), DrmError::kOk);
  EXPECT_TRUE(c.channel_ticket()->ticket.renewal);
}

}  // namespace
}  // namespace p2pdrm::net
