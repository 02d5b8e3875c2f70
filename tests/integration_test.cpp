// End-to-end integration tests: the full service stack and real clients
// exchanging real protocol bytes over the simulated network.
#include <gtest/gtest.h>

#include "client_ops.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMinute;
using util::kSecond;

DeploymentConfig make_config() {
  DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.geo_plan.num_regions = 2;
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : d_(make_config()) {
    d_.add_user("alice@example.com", "alices-password");
    d_.add_user("bob@example.com", "bobs-password");
    region0_ = d_.geo().region_at(0);
    region1_ = d_.geo().region_at(1);
    d_.add_regional_channel(1, "news", region0_);
    d_.add_regional_channel(2, "weather", region1_);
    d_.add_subscription_channel(3, "premium-sports", region0_, "101");
    d_.start_channel_server(1);
    d_.start_channel_server(2);
    d_.start_channel_server(3);
  }

  /// Produce one packet at channel 1's server and let the tree deliver it.
  void broadcast(std::string_view payload) {
    d_.broadcast(1, util::bytes_of(payload));
    d_.run_for(5 * kSecond);
  }

  Deployment d_;
  geo::RegionId region0_ = 0;
  geo::RegionId region1_ = 0;
};

TEST_F(IntegrationTest, LoginIssuesTicketAndChannelList) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  EXPECT_TRUE(alice.logged_in());
  ASSERT_TRUE(alice.user_ticket().has_value());
  EXPECT_TRUE(alice.user_ticket()->verify(d_.um_domain().keys.pub));
  EXPECT_EQ(alice.cached_channels().size(), 3u);
}

TEST_F(IntegrationTest, WrongPasswordFailsLogin) {
  AsyncClient& mallory = d_.add_client("alice@example.com", "wrong-password", region0_);
  EXPECT_EQ(login(d_, mallory), DrmError::kBadCredentials);
  EXPECT_FALSE(mallory.logged_in());
}

TEST_F(IntegrationTest, UnknownUserFailsLogin) {
  AsyncClient& ghost = d_.add_client("ghost@example.com", "pw", region0_);
  EXPECT_EQ(login(d_, ghost), DrmError::kUnknownUser);
}

TEST_F(IntegrationTest, ViewableChannelsFollowRegion) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  // Region 0: free channel 1 yes, channel 2 (region 1) no, channel 3 needs
  // a subscription alice does not have.
  EXPECT_EQ(alice.viewable_channels(), std::vector<util::ChannelId>{1});
}

TEST_F(IntegrationTest, WatchFreeChannelEndToEnd) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  ASSERT_TRUE(alice.channel_ticket().has_value());
  EXPECT_EQ(alice.channel_ticket()->ticket.channel_id, 1u);

  // Content produced at the Channel Server arrives decryptable.
  broadcast("live frame 0");
  EXPECT_EQ(alice.content_decrypted(), 1u);
  EXPECT_EQ(alice.content_undecryptable(), 0u);
}

TEST_F(IntegrationTest, ForeignRegionChannelDenied) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, alice, 2), DrmError::kAccessDenied);
  EXPECT_FALSE(alice.channel_ticket().has_value());
}

TEST_F(IntegrationTest, SubscriptionGatesPremiumChannel) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, alice, 3), DrmError::kAccessDenied);

  // Subscribe out-of-band at the Account Manager; a fresh login picks up
  // the new attribute and access follows.
  d_.accounts().subscribe("alice@example.com", {"101", util::kNullTime, util::kNullTime});
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, alice, 3), DrmError::kOk);
}

TEST_F(IntegrationTest, ChannelSwitchingTransparentAfterLogin) {
  // §II "Viewing Experience": after sign-on, switching needs no further
  // user-visible verification (no new login rounds).
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  d_.add_regional_channel(4, "news-2", region0_);
  d_.start_channel_server(4);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);  // refresh list with channel 4

  const auto logins = [&alice] {
    return std::count_if(
        alice.feedback_log().begin(), alice.feedback_log().end(),
        [](const core::LatencySample& s) { return s.round == core::Round::kLogin1; });
  };
  const auto logins_before = logins();
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 4), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  EXPECT_EQ(logins(), logins_before);
}

TEST_F(IntegrationTest, PeerToPeerRelayDistribution) {
  // Alice joins the server; Bob joins the overlay after she announces
  // herself as a parent candidate.
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  d_.announce(alice);

  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region0_);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, bob, 1), DrmError::kOk);

  broadcast("frame");
  EXPECT_EQ(alice.content_decrypted(), 1u);
  EXPECT_EQ(bob.content_decrypted(), 1u);
}

TEST_F(IntegrationTest, KeyRotationReachesWholeTree) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  d_.announce(alice);
  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region0_);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, bob, 1), DrmError::kOk);

  // Advance past a rotation; both clients must decrypt new-key content.
  d_.run_for(2 * kMinute);
  broadcast("rotated");
  EXPECT_EQ(alice.content_decrypted(), 1u);
  EXPECT_EQ(bob.content_decrypted(), 1u);
  EXPECT_EQ(alice.content_undecryptable() + bob.content_undecryptable(), 0u);
}

TEST_F(IntegrationTest, SameAccountSecondLocationSupersedesFirst) {
  // §IV-D: an account can watch a channel from one location at a time;
  // moving locations wins, and the old location's renewal is refused.
  AsyncClient& home = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, home), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, home, 1), DrmError::kOk);

  AsyncClient& office = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, office), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, office, 1), DrmError::kOk);

  // Renewal window opens near expiry (10 min lifetime, 3 min window).
  d_.run_for(8 * kMinute);
  EXPECT_EQ(renew(d_, home), DrmError::kRenewalRefused);
  EXPECT_EQ(renew(d_, office), DrmError::kOk);
}

TEST_F(IntegrationTest, RenewalKeepsPeeringAlive) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);

  d_.run_for(8 * kMinute);
  ASSERT_EQ(renew(d_, alice), DrmError::kOk);
  EXPECT_TRUE(alice.channel_ticket()->ticket.renewal);

  // Past the original expiry: the root's eviction sweep keeps the peering
  // thanks to the renewal presented to it.
  d_.run_for(4 * kMinute);  // t > 12 min > original 10 min expiry
  EXPECT_EQ(d_.root_node(1)->peer().child_count(), 1u);
}

TEST_F(IntegrationTest, BlackoutDeniesDuringWindowOnly) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);

  const util::SimTime now = d_.now();
  d_.policy_manager().blackout(1, now + 5 * kMinute, now + 65 * kMinute, now);

  // Refresh list (utime advanced). Before the window, access still granted.
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, alice, 1), DrmError::kOk);

  d_.run_for(6 * kMinute);  // inside the blackout window
  EXPECT_EQ(switch_to(d_, alice, 1), DrmError::kAccessDenied);

  d_.run_for(60 * kMinute);  // past the window
  ASSERT_EQ(login(d_, alice), DrmError::kOk);  // user ticket expired meanwhile
  EXPECT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
}

TEST_F(IntegrationTest, FeedbackLogRecordsAllFiveRounds) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  std::array<int, core::kNumRounds> counts{};
  for (const core::LatencySample& s : alice.feedback_log()) {
    ++counts[static_cast<std::size_t>(s.round)];
    EXPECT_TRUE(s.success);
  }
  EXPECT_EQ(counts[0], 2);  // LOGIN1, with the redirect lookup before it
  EXPECT_EQ(counts[1], 2);  // LOGIN2, with the channel-list fetch after it
  EXPECT_EQ(counts[2], 1);  // SWITCH1
  EXPECT_EQ(counts[3], 1);  // SWITCH2
  EXPECT_EQ(counts[4], 1);  // JOIN
}

TEST_F(IntegrationTest, UserTicketAutoRenewal) {
  // A viewer who keeps watching never sees the User Ticket lapse: the
  // auto-renewal timer re-logs in once the ticket nears expiry.
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  alice.enable_auto_renewal();
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  const util::SimTime first_expiry = alice.user_ticket()->ticket.expiry_time;
  d_.run_for(29 * kMinute);  // the 30-minute ticket is inside its last minutes
  EXPECT_GT(alice.user_ticket()->ticket.expiry_time, first_expiry);
}

TEST_F(IntegrationTest, PartitionedChannelManagers) {
  DeploymentConfig cfg = make_config();
  cfg.partitions = 2;
  Deployment d(cfg);
  d.add_user("carol@example.com", "pw");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "pop", region, /*partition=*/0);
  d.add_regional_channel(2, "niche", region, /*partition=*/1);
  d.start_channel_server(1);
  d.start_channel_server(2);

  AsyncClient& carol = d.add_client("carol@example.com", "pw", region);
  ASSERT_EQ(login(d, carol), DrmError::kOk);
  ASSERT_EQ(switch_to(d, carol, 1), DrmError::kOk);
  EXPECT_TRUE(carol.channel_ticket()->verify(d.channel_manager(0).public_key()));
  ASSERT_EQ(switch_to(d, carol, 2), DrmError::kOk);
  EXPECT_TRUE(carol.channel_ticket()->verify(d.channel_manager(1).public_key()));
  // Each partition's log saw exactly its own channel.
  EXPECT_EQ(d.channel_manager(0).log().views_per_channel().count(2), 0u);
  EXPECT_EQ(d.channel_manager(1).log().views_per_channel().count(1), 0u);
}

TEST_F(IntegrationTest, ViewingLogSupportsRoyaltyReporting) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, bob, 1), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);  // watch again

  const auto views = d_.channel_manager().log().views_per_channel();
  EXPECT_EQ(views.at(1), 3u);
}

TEST_F(IntegrationTest, ParentDepartureRecoverableByRejoining) {
  // Churn: Bob's parent (Alice) leaves; Bob re-runs the switch (fresh
  // ticket + fresh peer list) and reattaches elsewhere.
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  d_.announce(alice);

  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region0_);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, bob, 1), DrmError::kOk);

  // Alice departs: her peer leaves the overlay and the tracker.
  const util::NodeId alice_node = alice.config().node;
  d_.remove_client(alice);
  if (bob.parent() == alice_node) {
    // Bob notices the dead parent and rejoins.
    ASSERT_EQ(switch_to(d_, bob, 1), DrmError::kOk);
  }
  EXPECT_NE(bob.parent(), alice_node);
  broadcast("after churn");
  EXPECT_EQ(bob.content_decrypted(), 1u);
}

TEST_F(IntegrationTest, AsNumberPolicyGatesByNetwork) {
  // Table I lists "AS Number: the network the user connects from" — e.g. an
  // ISP-partnered channel available only to that ISP's customers. Build a
  // channel gated on alice's own AS and verify the gate.
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  const core::Attribute* as_attr =
      alice.user_ticket()->ticket.attributes.find(core::kAttrAs);
  ASSERT_NE(as_attr, nullptr);
  const std::string alice_as = as_attr->value.value();

  core::ChannelRecord isp_channel;
  isp_channel.id = 50;
  isp_channel.name = "isp-exclusive";
  core::Attribute gate;
  gate.name = core::kAttrAs;
  gate.value = core::AttrValue::of(alice_as);
  isp_channel.attributes.add(gate);
  core::Policy accept;
  accept.priority = 50;
  accept.terms.push_back({core::kAttrAs, core::AttrValue::of(alice_as)});
  accept.action = core::PolicyAction::kAccept;
  isp_channel.policies.push_back(accept);
  d_.policy_manager().add_channel(isp_channel, d_.now());
  d_.start_channel_server(50);

  ASSERT_EQ(login(d_, alice), DrmError::kOk);  // refresh list
  EXPECT_EQ(switch_to(d_, alice, 50), DrmError::kOk);

  // A viewer from the other region is on a different AS block: denied.
  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region1_);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, bob, 50), DrmError::kAccessDenied);
}

TEST_F(IntegrationTest, CatalogDeploymentEndToEnd) {
  // Deploy a lineup from operator config text and watch it (the full path:
  // parse -> CPM -> channel list push -> policy evaluation -> tickets).
  Deployment d(make_config());
  d.add_user("op@example.com", "pw");
  const std::string region = std::to_string(d.geo().region_at(0));
  const std::string catalog = "channel 10 \"from-config\" partition 0\n"
                              "  attribute Region=" + region + "\n" +
                              "  policy Priority 50: Region=" + region +
                              ", Return ACCEPT\n";
  ASSERT_EQ(d.load_catalog(catalog), "");
  d.start_channel_server(10);

  AsyncClient& op = d.add_client("op@example.com", "pw", d.geo().region_at(0));
  ASSERT_EQ(login(d, op), DrmError::kOk);
  EXPECT_EQ(switch_to(d, op, 10), DrmError::kOk);

  EXPECT_NE(d.load_catalog("garbage"), "");  // errors surface, nothing deployed
}

TEST_F(IntegrationTest, OpsCountersAggregateAcrossProtocol) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 2), DrmError::kAccessDenied);

  // Every farm instance counts into the deployment registry, so the
  // "server.outcome" family is the logical manager's view (§V).
  const obs::Registry& reg = d_.registry();
  const auto count = [&reg](const char* name) -> std::uint64_t {
    const obs::Counter* c = reg.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_EQ(count("server.outcome{login1-req:ok}"), 1u);
  EXPECT_EQ(count("server.outcome{login2-req:ok}"), 1u);

  std::uint64_t switch1 = 0, switch2 = 0;
  for (const auto& [label, counter] : reg.family("server.outcome")) {
    if (label.rfind("switch1-req:", 0) == 0) switch1 += counter->value();
    if (label.rfind("switch2-req:", 0) == 0) switch2 += counter->value();
  }
  EXPECT_EQ(switch1, 2u);
  EXPECT_EQ(switch2, 2u);
  EXPECT_EQ(count("server.outcome{switch2-req:access-denied}"), 1u);
  EXPECT_EQ(count("server.outcome{switch2-req:ok}"), 1u);
}

TEST_F(IntegrationTest, PpvEndToEnd) {
  const util::SimTime start = d_.now() + 5 * kMinute;
  const util::SimTime end = start + 60 * kMinute;
  d_.policy_manager().add_ppv_program(1, "ppv-77", start, end, d_.now());
  d_.accounts().subscribe("alice@example.com", {"ppv-77", start, end});

  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region0_);
  d_.run_for(10 * kMinute);  // inside the program window
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  EXPECT_EQ(switch_to(d_, bob, 1), DrmError::kAccessDenied);
}

TEST_F(IntegrationTest, EavesdropperWithoutKeysReadsNothing) {
  AsyncClient& alice = d_.add_client("alice@example.com", "alices-password", region0_);
  ASSERT_EQ(login(d_, alice), DrmError::kOk);
  ASSERT_EQ(switch_to(d_, alice, 1), DrmError::kOk);
  // Bob is logged in but holds no Channel Ticket, so no session key.
  AsyncClient& bob = d_.add_client("bob@example.com", "bobs-password", region0_);
  ASSERT_EQ(login(d_, bob), DrmError::kOk);

  broadcast("pay-per-view content");
  EXPECT_EQ(alice.content_decrypted(), 1u);
  // Content reaches only authorized tree members: nothing decrypted (or
  // even delivered) anywhere else.
  EXPECT_EQ(bob.content_decrypted() + bob.content_undecryptable(), 0u);
}

}  // namespace
}  // namespace p2pdrm::net
