// Unit tests for AsyncClient's local logic (channel-list cache handling,
// state transitions, the feedback log) — the distributed suite covers the
// protocol over the wire; these pin the client-side behaviors around it.
#include <gtest/gtest.h>

#include "client_ops.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using core::Round;
using util::kMinute;

class ClientUnitTest : public ::testing::Test {
 protected:
  ClientUnitTest() : d_(make_config()) {
    d_.add_user("u@example.com", "pw");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "one", region_);
    d_.add_regional_channel(2, "two", region_);
    d_.start_channel_server(1);
    d_.start_channel_server(2);
  }

  static DeploymentConfig make_config() {
    DeploymentConfig cfg;
    cfg.seed = 4242;
    return cfg;
  }

  std::size_t rounds_of(const AsyncClient& c, Round round) {
    return static_cast<std::size_t>(
        std::count_if(c.feedback_log().begin(), c.feedback_log().end(),
                      [&](const core::LatencySample& s) { return s.round == round; }));
  }

  Deployment d_;
  geo::RegionId region_ = 0;
};

TEST_F(ClientUnitTest, FreshClientHasNoState) {
  AsyncClient& c = d_.add_client("u@example.com", "pw", region_);
  EXPECT_FALSE(c.logged_in());
  EXPECT_FALSE(c.user_ticket().has_value());
  EXPECT_FALSE(c.channel_ticket().has_value());
  EXPECT_TRUE(c.cached_channels().empty());
  EXPECT_TRUE(c.viewable_channels().empty());
  EXPECT_EQ(c.peer_node(), nullptr);
  EXPECT_FALSE(c.parent().has_value());
}

TEST_F(ClientUnitTest, SwitchBeforeLoginTriggersLogin) {
  // A resilient client treats a missing session as recoverable: the switch
  // logs in first — the paper's transparent single sign-on.
  AsyncClient::Config cfg = d_.make_client_config("u@example.com", "pw", region_);
  cfg.resilience = true;
  AsyncClient c(cfg, d_.network(), crypto::SecureRandom(7));
  EXPECT_EQ(switch_to(d_, c, 1), DrmError::kOk);
  EXPECT_TRUE(c.logged_in());
  // One login: the redirect lookup and LOGIN1 proper both time as LOGIN1.
  EXPECT_EQ(rounds_of(c, Round::kLogin1), 2u);
}

TEST_F(ClientUnitTest, ViewableChannelsReflectPolicies) {
  AsyncClient& c = d_.add_client("u@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  EXPECT_EQ(c.viewable_channels(), (std::vector<util::ChannelId>{1, 2}));

  // Blacking out channel 2 removes it from the evaluation. The admin action
  // happens strictly later than the original deployment so the Region
  // attribute's utime visibly advances (same-instant changes would compare
  // equal and skip the refetch).
  d_.run_for(kMinute);
  const util::SimTime now = d_.now();
  d_.policy_manager().blackout(2, now, now + util::kHour, now);
  ASSERT_EQ(login(d_, c), DrmError::kOk);  // refresh cache via utimes
  EXPECT_EQ(c.viewable_channels(), (std::vector<util::ChannelId>{1}));
}

TEST_F(ClientUnitTest, CachedChannelListSurvivesQuietRelogins) {
  AsyncClient& c = d_.add_client("u@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  const std::size_t size_before = c.cached_channels().size();
  const std::size_t login2_before = rounds_of(c, Round::kLogin2);
  // No admin changes: re-login must keep (not refetch or corrupt) the cache.
  d_.run_for(5 * kMinute);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  EXPECT_EQ(c.cached_channels().size(), size_before);
  // Only LOGIN2 itself ran: no channel-list fetch (also timed as LOGIN2).
  EXPECT_EQ(rounds_of(c, Round::kLogin2), login2_before + 1);
}

TEST_F(ClientUnitTest, PartialRefreshMergesNewChannels) {
  AsyncClient& c = d_.add_client("u@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  EXPECT_EQ(c.cached_channels().size(), 2u);

  d_.run_for(kMinute);  // the lineup change happens later in time
  d_.add_regional_channel(3, "three", region_);
  d_.start_channel_server(3);
  ASSERT_EQ(login(d_, c), DrmError::kOk);  // stale Region utime -> partial fetch
  EXPECT_EQ(c.cached_channels().size(), 3u);
  EXPECT_EQ(switch_to(d_, c, 3), DrmError::kOk);
}

TEST_F(ClientUnitTest, SwitchingReplacesChannelTicket) {
  AsyncClient& c = d_.add_client("u@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, c, 1), DrmError::kOk);
  const util::Bytes first = c.channel_ticket()->encode();
  ASSERT_EQ(switch_to(d_, c, 2), DrmError::kOk);
  EXPECT_EQ(c.channel_ticket()->ticket.channel_id, 2u);
  EXPECT_NE(c.channel_ticket()->encode(), first);
  // A client is a member of one P2P network at a time (§III): the peer is
  // rebuilt for the new channel.
  ASSERT_NE(c.peer_node(), nullptr);
  EXPECT_EQ(c.peer_node()->peer().config().channel, 2u);
}

TEST_F(ClientUnitTest, RenewWithoutChannelTicketFails) {
  AsyncClient& c = d_.add_client("u@example.com", "pw", region_);
  ASSERT_EQ(login(d_, c), DrmError::kOk);
  EXPECT_EQ(renew(d_, c), DrmError::kBadTicket);
}

TEST_F(ClientUnitTest, FailedRoundsRecordedAsFailures) {
  AsyncClient& c = d_.add_client("u@example.com", "wrong-password", region_);
  EXPECT_EQ(login(d_, c), DrmError::kBadCredentials);
  // The redirect and LOGIN1 succeeded at the transport level (the servers
  // answered) but the flow aborted before LOGIN2 — no LOGIN2 sample, and
  // nothing marked success=false spuriously.
  EXPECT_EQ(rounds_of(c, Round::kLogin1), 2u);
  EXPECT_EQ(rounds_of(c, Round::kLogin2), 0u);
  for (const core::LatencySample& s : c.feedback_log()) EXPECT_TRUE(s.success);
}

}  // namespace
}  // namespace p2pdrm::net
