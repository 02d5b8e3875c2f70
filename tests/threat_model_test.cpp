// Threat-model scenarios (§IV-G): ticket capture and replay, peer-list
// substitution, stolen credentials, and compromised-client boundaries —
// each exercised end-to-end against the real service stack. Attacker
// requests go straight to the service handlers: the attacker controls its
// own bytes and address, not the transport.
#include <gtest/gtest.h>

#include "client_ops.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMinute;

class ThreatModelTest : public ::testing::Test {
 protected:
  ThreatModelTest() : d_(make_config()) {
    d_.add_user("victim@example.com", "victims-password");
    d_.add_user("attacker@example.com", "attackers-password");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "news", region_);
    d_.start_channel_server(1);
  }

  static DeploymentConfig make_config() {
    DeploymentConfig cfg;
    cfg.seed = 1337;
    return cfg;
  }

  AsyncClient& watching_victim() {
    AsyncClient& victim =
        d_.add_client("victim@example.com", "victims-password", region_);
    EXPECT_EQ(login(d_, victim), DrmError::kOk);
    EXPECT_EQ(switch_to(d_, victim, 1), DrmError::kOk);
    return victim;
  }

  Deployment d_;
  geo::RegionId region_ = 0;
};

// §IV-G1: "an attacker that has a client's User Ticket but not the client's
// private key cannot do much with the ticket."
TEST_F(ThreatModelTest, StolenUserTicketUselessWithoutPrivateKey) {
  AsyncClient& victim = d_.add_client("victim@example.com", "victims-password", region_);
  ASSERT_EQ(login(d_, victim), DrmError::kOk);

  // Attacker captures the victim's User Ticket bytes off the wire and
  // presents them from the victim's own address (strongest position).
  const util::Bytes stolen = victim.user_ticket()->encode();
  core::Switch1Request r1;
  r1.user_ticket = stolen;
  r1.channel_id = 1;
  services::ChannelManager& cm = d_.channel_manager(0);
  const core::Switch1Response resp1 =
      cm.handle_switch1(r1, victim.config().addr, d_.now());
  ASSERT_EQ(resp1.error, DrmError::kOk);  // challenge is issued...

  // ...but SWITCH2 requires a signature with the private key certified in
  // the ticket, which the attacker does not hold.
  crypto::SecureRandom rng(1);
  const crypto::RsaKeyPair attacker_keys = crypto::generate_rsa_keypair(rng, 512);
  core::Switch2Request r2;
  r2.user_ticket = stolen;
  r2.channel_id = 1;
  r2.challenge = resp1.challenge;
  r2.proof = crypto::rsa_sign(attacker_keys.priv, resp1.challenge.nonce);
  EXPECT_EQ(cm.handle_switch2(r2, victim.config().addr, d_.now()).error,
            DrmError::kBadCredentials);
}

// §IV-G1: a Channel Ticket captured during the join procedure cannot yield
// content keys without the victim's private key.
TEST_F(ThreatModelTest, CapturedChannelTicketYieldsNoKeys) {
  AsyncClient& victim = watching_victim();

  // The attacker captured the ticket bytes (peers see them during join) and
  // replays the join — even spoofing the victim's network address.
  core::JoinRequest req;
  req.channel_ticket = victim.channel_ticket()->encode();
  const core::JoinResponse resp = d_.root_node(1)->peer().handle_join(
      req, victim.config().addr, /*self=*/4242, d_.now());
  // The peer accepts (it cannot distinguish), but the session key is
  // encrypted under the *victim's* certified public key.
  ASSERT_EQ(resp.error, DrmError::kOk);
  crypto::SecureRandom rng(2);
  const crypto::RsaKeyPair attacker_keys = crypto::generate_rsa_keypair(rng, 512);
  EXPECT_FALSE(crypto::rsa_decrypt(attacker_keys.priv, resp.encrypted_session_key)
                   .has_value());
}

/// Rewrites every SWITCH2 response's peer list to one bogus peer — what an
/// attacker on the victim's path can do, since the list is unsigned.
class PeerListSubstituter final : public SendInterceptor {
 public:
  Verdict on_send(const SendContext& ctx) override {
    Verdict v;
    std::optional<Envelope> env = Envelope::decode(*ctx.data);
    if (!env || env->kind != MsgKind::kSwitch2Response) return v;
    core::Switch2Response resp = core::Switch2Response::decode(env->payload);
    resp.peers = {core::PeerInfo{999999, util::NetAddr{0x0a0b0c0d}}};
    env->payload = resp.encode();
    v.replace = env->encode();
    return v;
  }
};

// §IV-G1: the peer list is deliberately unsigned; an attacker who controls
// the victim's traffic substitutes it. The damage is bounded: it can deny
// service — it cannot mint decryptable keys without being an authorized
// peer itself.
TEST_F(ThreatModelTest, SubstitutedPeerListBoundedDamage) {
  AsyncClient& victim = d_.add_client("victim@example.com", "victims-password", region_);
  ASSERT_EQ(login(d_, victim), DrmError::kOk);

  // The substituted list points at a node that maps to nothing in the
  // overlay: the join simply fails — denial, not compromise.
  PeerListSubstituter substituter;
  d_.network().add_interceptor(&substituter);
  EXPECT_EQ(switch_to(d_, victim, 1), DrmError::kNoCapacity);
  d_.network().remove_interceptor(&substituter);
  EXPECT_TRUE(victim.channel_ticket().has_value());  // the ticket itself is fine
  EXPECT_FALSE(victim.parent().has_value());
}

// Replaying a whole captured LOGIN2 gets the attacker a ticket bound to the
// victim's public key — which it cannot use (no private key). Verified via
// the ticket's certified key.
TEST_F(ThreatModelTest, ReplayedLogin2YieldsUnusableTicket) {
  AsyncClient& victim = d_.add_client("victim@example.com", "victims-password", region_);
  ASSERT_EQ(login(d_, victim), DrmError::kOk);
  // The replayed response would carry the same certified key.
  EXPECT_EQ(victim.user_ticket()->ticket.client_public_key, victim.public_key());
}

// An eavesdropper on LOGIN1 cannot recover the nonce (password-encrypted),
// so it cannot complete the login as the victim even with captured traffic.
TEST_F(ThreatModelTest, Login1EavesdropperLearnsNoNonce) {
  crypto::SecureRandom rng(3);
  const crypto::RsaKeyPair attacker_keys = crypto::generate_rsa_keypair(rng, 512);
  core::Login1Request req;
  req.email = "victim@example.com";
  req.client_public_key = attacker_keys.pub;
  req.client_version = 1;
  const core::Login1Response resp = d_.user_manager().handle_login1(
      req, d_.geo().sample_address(rng, region_), d_.now());
  ASSERT_EQ(resp.error, DrmError::kOk);
  // The clear part of the response carries no nonce...
  EXPECT_TRUE(resp.challenge.nonce.empty());
  // ...and the encrypted part does not open without the password.
  EXPECT_FALSE(core::decrypt_with_shp(core::password_hash("guess1"),
                                      resp.encrypted_params)
                   .has_value());
}

// Account sharing across regions: credentials shared with someone in
// another region do not unlock region-locked channels there.
TEST_F(ThreatModelTest, SharedCredentialsDontCrossRegions) {
  DeploymentConfig cfg = make_config();
  cfg.geo_plan.num_regions = 2;
  Deployment d(cfg);
  d.add_user("victim@example.com", "pw");
  d.add_regional_channel(1, "region0-only", d.geo().region_at(0));
  d.start_channel_server(1);

  AsyncClient& foreign = d.add_client("victim@example.com", "pw", d.geo().region_at(1));
  ASSERT_EQ(login(d, foreign), DrmError::kOk);
  EXPECT_EQ(switch_to(d, foreign, 1), DrmError::kAccessDenied);
}

// A client whose binary was patched fails attestation at the next login —
// the per-login random window makes precomputed checksums useless.
TEST_F(ThreatModelTest, PatchedClientEventuallyCaughtByRandomWindows) {
  AsyncClient& victim = d_.add_client("victim@example.com", "victims-password", region_);
  ASSERT_EQ(login(d_, victim), DrmError::kOk);

  // Attacker runs a patched binary under the victim's credentials.
  AsyncClient::Config cc =
      d_.make_client_config("victim@example.com", "victims-password", region_);
  cc.client_binary[cc.client_binary.size() / 2] ^= 0xff;  // one patched byte
  AsyncClient patched(cc, d_.network(), crypto::SecureRandom(4));

  // A single-byte patch escapes some windows; repeated logins (fresh random
  // windows each time) catch it with overwhelming probability.
  int failures = 0;
  for (int i = 0; i < 30; ++i) {
    const std::optional<DrmError> result = login(d_, patched);
    ASSERT_TRUE(result.has_value());
    if (*result == DrmError::kAttestationFailed) ++failures;
  }
  EXPECT_GT(failures, 0);
}

// Ticket lifetimes bound how long any captured ticket is worth anything.
TEST_F(ThreatModelTest, ExpiredTicketsRejectedEverywhere) {
  AsyncClient& victim = watching_victim();
  const util::Bytes user_ticket = victim.user_ticket()->encode();
  const util::Bytes channel_ticket = victim.channel_ticket()->encode();

  d_.run_for(31 * kMinute);  // past both lifetimes

  core::Switch1Request r1;
  r1.user_ticket = user_ticket;
  r1.channel_id = 1;
  EXPECT_EQ(
      d_.channel_manager(0).handle_switch1(r1, victim.config().addr, d_.now()).error,
      DrmError::kTicketExpired);

  core::JoinRequest jr;
  jr.channel_ticket = channel_ticket;
  EXPECT_EQ(d_.root_node(1)
                ->peer()
                .handle_join(jr, victim.config().addr, victim.config().node, d_.now())
                .error,
            DrmError::kTicketExpired);
}

}  // namespace
}  // namespace p2pdrm::net
