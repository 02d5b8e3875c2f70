// Property sweeps over ticket lifetimes: for every configuration of User
// Ticket lifetime, Channel Ticket lifetime, and renewal window, the
// system-wide ticket invariants must hold across issue/renew cycles:
//
//   I1. A Channel Ticket never outlives the User Ticket it was issued
//       against (§IV-C).
//   I2. A User Ticket never outlives any attribute it carries (§IV-B).
//   I3. Renewal preserves identity: UserIN, channel, NetAddr, certified key.
//   I4. Renewal extends expiry monotonically and sets the renewal bit.
//   I5. Tickets verify under the issuer's key after every operation.
#include <gtest/gtest.h>

#include "client_ops.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMinute;

struct LifetimeParams {
  util::SimTime ut_lifetime;
  util::SimTime ct_lifetime;
  util::SimTime renewal_window;
};

class TicketPropertyTest : public ::testing::TestWithParam<LifetimeParams> {};

TEST_P(TicketPropertyTest, InvariantsAcrossIssueAndRenewCycles) {
  const LifetimeParams params = GetParam();
  DeploymentConfig cfg;
  cfg.seed = 31337;
  cfg.um.ticket_lifetime = params.ut_lifetime;
  cfg.cm.ticket_lifetime = params.ct_lifetime;
  cfg.cm.renewal_window = params.renewal_window;
  Deployment d(cfg);
  d.add_user("prop@example.com", "pw");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "prop-channel", region);
  d.start_channel_server(1);

  AsyncClient& c = d.add_client("prop@example.com", "pw", region);
  ASSERT_EQ(login(d, c), DrmError::kOk);
  ASSERT_EQ(switch_to(d, c, 1), DrmError::kOk);

  const util::UserIN user_in = c.user_ticket()->ticket.user_in;
  const crypto::RsaPublicKey certified = c.user_ticket()->ticket.client_public_key;

  // Drive several renewal cycles through simulated time.
  for (int cycle = 0; cycle < 6; ++cycle) {
    const core::ChannelTicket before = c.channel_ticket()->ticket;

    // I1/I2/I5 at every observation point.
    ASSERT_LE(c.channel_ticket()->ticket.expiry_time,
              c.user_ticket()->ticket.expiry_time);
    if (const auto earliest = c.user_ticket()->ticket.attributes.earliest_expiry()) {
      ASSERT_LE(c.user_ticket()->ticket.expiry_time, *earliest);
    }
    ASSERT_TRUE(c.user_ticket()->verify(d.um_domain().keys.pub));
    ASSERT_TRUE(c.channel_ticket()->verify(d.channel_manager().public_key()));

    // Advance into the renewal window of the channel ticket.
    const util::SimTime target =
        std::max<util::SimTime>(before.expiry_time - params.renewal_window / 2,
                                d.now() + 1);
    d.run_until(target);
    // Re-login first when the User Ticket would lapse within two minutes.
    if (c.user_ticket()->ticket.expiry_time - d.now() <= 2 * kMinute) {
      ASSERT_EQ(login(d, c), DrmError::kOk);
    }
    const std::optional<DrmError> renewed = renew(d, c);
    ASSERT_TRUE(renewed.has_value());
    if (*renewed != DrmError::kOk) {
      // Legal only when the renewal window collapsed below clock precision;
      // re-acquire via a fresh switch and continue the sweep.
      ASSERT_EQ(switch_to(d, c, 1), DrmError::kOk);
      continue;
    }
    const core::ChannelTicket& after = c.channel_ticket()->ticket;

    // I3: identity preserved.
    EXPECT_EQ(after.user_in, user_in);
    EXPECT_EQ(after.channel_id, before.channel_id);
    EXPECT_EQ(after.net_addr, before.net_addr);
    EXPECT_EQ(after.client_public_key, certified);
    // I4: renewal semantics.
    EXPECT_TRUE(after.renewal);
    EXPECT_GE(after.expiry_time, before.expiry_time);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lifetimes, TicketPropertyTest,
    ::testing::Values(
        LifetimeParams{30 * kMinute, 10 * kMinute, 3 * kMinute},
        LifetimeParams{30 * kMinute, 2 * kMinute, 1 * kMinute},
        LifetimeParams{10 * kMinute, 5 * kMinute, 2 * kMinute},
        LifetimeParams{60 * kMinute, 30 * kMinute, 5 * kMinute},
        LifetimeParams{15 * kMinute, 15 * kMinute, 4 * kMinute},
        LifetimeParams{120 * kMinute, 10 * kMinute, 3 * kMinute}));

/// The paper's lower bound on policy lead time, checked as a property: a
/// policy deployed T before its effect can never be beaten by an
/// outstanding ticket if T >= one User Ticket lifetime.
class PolicyLeadTimeTest : public ::testing::TestWithParam<util::SimTime> {};

TEST_P(PolicyLeadTimeTest, BlackoutDeployedOneUtLifetimeAheadAlwaysBinds) {
  const util::SimTime ut_lifetime = GetParam();
  DeploymentConfig cfg;
  cfg.seed = 404;
  cfg.um.ticket_lifetime = ut_lifetime;
  cfg.cm.ticket_lifetime = ut_lifetime / 2;
  Deployment d(cfg);
  d.add_user("lead@example.com", "pw");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "c", region);
  d.start_channel_server(1);

  AsyncClient& c = d.add_client("lead@example.com", "pw", region);
  ASSERT_EQ(login(d, c), DrmError::kOk);
  ASSERT_EQ(switch_to(d, c, 1), DrmError::kOk);

  // Deploy the blackout exactly one UT lifetime before it starts.
  const util::SimTime start = d.now() + ut_lifetime;
  d.policy_manager().blackout(1, start, start + 2 * ut_lifetime, d.now());

  // At the blackout start, every ticket issued before deployment has
  // expired: both the user ticket and (transitively, I1) channel tickets.
  EXPECT_LE(c.user_ticket()->ticket.expiry_time, start);
  EXPECT_LE(c.channel_ticket()->ticket.expiry_time, start);

  // And new tickets issued during the window cannot watch.
  d.run_until(start + util::kMinute);
  ASSERT_EQ(login(d, c), DrmError::kOk);
  EXPECT_EQ(switch_to(d, c, 1), DrmError::kAccessDenied);
}

INSTANTIATE_TEST_SUITE_P(UtLifetimes, PolicyLeadTimeTest,
                         ::testing::Values(10 * kMinute, 30 * kMinute,
                                           60 * kMinute));

}  // namespace
}  // namespace p2pdrm::net
