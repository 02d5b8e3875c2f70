#include <gtest/gtest.h>

#include "services/account_manager.h"
#include "services/channel_server.h"
#include "services/redirection_manager.h"

namespace p2pdrm::services {
namespace {

using util::kMinute;
using util::kSecond;

// --- AccountManager ---

TEST(AccountManagerTest, CreateAndDuplicate) {
  AccountManager am;
  EXPECT_TRUE(am.create_account("a@x.com", "pw", 0));
  EXPECT_FALSE(am.create_account("a@x.com", "pw2", 0));
  EXPECT_EQ(am.account_count(), 1u);
  ASSERT_NE(am.find("a@x.com"), nullptr);
  EXPECT_EQ(am.find("b@x.com"), nullptr);
}

TEST(AccountManagerTest, SubscribeUnsubscribe) {
  AccountManager am;
  am.create_account("a@x.com", "pw", 0);
  EXPECT_TRUE(am.subscribe("a@x.com", {"101", 0, 100}));
  EXPECT_TRUE(am.subscribe("a@x.com", {"202", 0, 100}));
  EXPECT_EQ(am.find("a@x.com")->subscriptions.size(), 2u);
  EXPECT_TRUE(am.unsubscribe("a@x.com", "101"));
  EXPECT_EQ(am.find("a@x.com")->subscriptions.size(), 1u);
  EXPECT_FALSE(am.subscribe("ghost@x.com", {"101", 0, 100}));
  EXPECT_FALSE(am.unsubscribe("ghost@x.com", "101"));
}

TEST(AccountManagerTest, SinkReceivesEveryChange) {
  int pushes = 0;
  AccountManager am([&](const UserProvisioning&) { ++pushes; });
  am.create_account("a@x.com", "pw", 0);
  am.subscribe("a@x.com", {"101", 0, 100});
  am.set_suspended("a@x.com", true);
  EXPECT_EQ(pushes, 3);
}

TEST(AccountManagerTest, LateSinkReplaysExistingAccounts) {
  AccountManager am;
  am.create_account("a@x.com", "pw", 0);
  am.create_account("b@x.com", "pw", 0);
  int pushes = 0;
  am.set_sink([&](const UserProvisioning&) { ++pushes; });
  EXPECT_EQ(pushes, 2);
}

TEST(AccountManagerTest, NeverStoresPlaintextPassword) {
  AccountManager am;
  am.create_account("a@x.com", "super-secret-password", 0);
  const AccountRecord* rec = am.find("a@x.com");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->shp, core::password_hash("super-secret-password"));
}

// --- RedirectionManager ---

TEST(RedirectionManagerTest, LookupFlow) {
  RedirectionManager rm;
  crypto::SecureRandom rng(1);
  rm.register_domain(0, {util::parse_netaddr("10.0.0.1"), rng.bytes(16)});
  rm.set_channel_policy_manager({util::parse_netaddr("10.0.0.9"), rng.bytes(16)});
  rm.assign_user("a@x.com", 0);

  const RedirectResponse resp = rm.handle_lookup({"a@x.com"});
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.domain, 0u);
  EXPECT_EQ(resp.user_manager.addr, util::parse_netaddr("10.0.0.1"));
  EXPECT_EQ(resp.channel_policy_manager.addr, util::parse_netaddr("10.0.0.9"));
}

TEST(RedirectionManagerTest, UnknownUserNotFound) {
  RedirectionManager rm;
  EXPECT_FALSE(rm.handle_lookup({"ghost@x.com"}).found);
}

TEST(RedirectionManagerTest, UserInUnregisteredDomainNotFound) {
  RedirectionManager rm;
  rm.assign_user("a@x.com", 7);  // domain 7 never registered
  EXPECT_FALSE(rm.handle_lookup({"a@x.com"}).found);
}

TEST(RedirectionManagerTest, MultipleDomains) {
  RedirectionManager rm;
  rm.register_domain(0, {util::parse_netaddr("10.0.0.1"), {}});
  rm.register_domain(1, {util::parse_netaddr("10.0.1.1"), {}});
  rm.assign_user("a@x.com", 0);
  rm.assign_user("b@x.com", 1);
  EXPECT_EQ(rm.handle_lookup({"a@x.com"}).user_manager.addr,
            util::parse_netaddr("10.0.0.1"));
  EXPECT_EQ(rm.handle_lookup({"b@x.com"}).user_manager.addr,
            util::parse_netaddr("10.0.1.1"));
}

TEST(RedirectionManagerTest, WireRoundTrips) {
  RedirectRequest req{"a@x.com"};
  EXPECT_EQ(RedirectRequest::decode(req.encode()).email, "a@x.com");
  RedirectResponse resp;
  resp.found = true;
  resp.domain = 3;
  resp.user_manager = {util::parse_netaddr("10.0.0.1"), util::bytes_of("pk")};
  resp.channel_policy_manager = {util::parse_netaddr("10.0.0.2"), util::bytes_of("pk2")};
  const RedirectResponse d = RedirectResponse::decode(resp.encode());
  EXPECT_TRUE(d.found);
  EXPECT_EQ(d.domain, 3u);
  EXPECT_EQ(d.user_manager, resp.user_manager);
}

// --- ChannelServer ---

ChannelServerConfig server_config() {
  ChannelServerConfig cfg;
  cfg.channel = 5;
  cfg.rekey_interval = 60 * kSecond;
  cfg.announce_lead = 10 * kSecond;
  cfg.key_history = 4;
  return cfg;
}

TEST(ChannelServerTest, InitialKeyActiveImmediately) {
  crypto::SecureRandom rng(1);
  ChannelServer server(server_config(), std::move(rng), 0);
  EXPECT_EQ(server.active_key(0).serial, 0);
  EXPECT_EQ(server.keys_minted(), 1u);
}

TEST(ChannelServerTest, RotatesOnSchedule) {
  crypto::SecureRandom rng(2);
  ChannelServer server(server_config(), std::move(rng), 0);
  // Next key (activation 60s) minted at 50s (announce lead).
  EXPECT_TRUE(server.advance(49 * kSecond).empty());
  const auto minted = server.advance(50 * kSecond);
  ASSERT_EQ(minted.size(), 1u);
  EXPECT_EQ(minted[0].serial, 1);
  EXPECT_EQ(minted[0].activation, 60 * kSecond);
  // Not active until its activation time.
  EXPECT_EQ(server.active_key(55 * kSecond).serial, 0);
  EXPECT_EQ(server.active_key(60 * kSecond).serial, 1);
}

TEST(ChannelServerTest, CatchesUpAfterGap) {
  crypto::SecureRandom rng(3);
  ChannelServer server(server_config(), std::move(rng), 0);
  const auto minted = server.advance(5 * kMinute);  // five intervals later
  EXPECT_GE(minted.size(), 4u);
  EXPECT_EQ(server.active_key(5 * kMinute).serial, 5);
}

TEST(ChannelServerTest, SerialWrapsMod256) {
  ChannelServerConfig cfg = server_config();
  cfg.rekey_interval = kSecond;
  cfg.announce_lead = 0;
  crypto::SecureRandom rng(4);
  ChannelServer server(cfg, std::move(rng), 0);
  (void)server.advance(300 * kSecond);
  EXPECT_EQ(server.keys_minted(), 301u);
  // serial of the active key at 300s: 300 mod 256 = 44.
  EXPECT_EQ(server.active_key(300 * kSecond).serial, 44);
}

TEST(ChannelServerTest, KeyHistoryBounded) {
  crypto::SecureRandom rng(5);
  ChannelServer server(server_config(), std::move(rng), 0);
  (void)server.advance(30 * kMinute);
  EXPECT_FALSE(server.key_by_serial(0).has_value());  // aged out
  EXPECT_TRUE(server.key_by_serial(server.latest_key().serial).has_value());
}

TEST(ChannelServerTest, ProduceEncryptsUnderActiveKey) {
  crypto::SecureRandom rng(6);
  ChannelServer server(server_config(), std::move(rng), 0);
  const util::Bytes payload = util::bytes_of("frame");
  const core::ContentPacket p = server.produce(payload, 0);
  EXPECT_EQ(p.channel, 5u);
  EXPECT_EQ(p.key_serial, 0);
  EXPECT_NE(p.payload, payload);
  const auto key = server.key_by_serial(0);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(core::decrypt_packet(*key, p), payload);
  EXPECT_EQ(server.packets_produced(), 1u);
}

TEST(ChannelServerTest, SequenceNumbersIncrease) {
  crypto::SecureRandom rng(7);
  ChannelServer server(server_config(), std::move(rng), 0);
  EXPECT_EQ(server.produce(util::bytes_of("a"), 0).seq, 0u);
  EXPECT_EQ(server.produce(util::bytes_of("b"), 0).seq, 1u);
}

TEST(ChannelServerTest, UnencryptedMode) {
  ChannelServerConfig cfg = server_config();
  cfg.encrypt = false;
  crypto::SecureRandom rng(8);
  ChannelServer server(cfg, std::move(rng), 0);
  const util::Bytes payload = util::bytes_of("clear frame");
  const core::ContentPacket p = server.produce(payload, 0);
  EXPECT_EQ(p.payload, payload);
}

TEST(ChannelServerTest, RejectsBadConfig) {
  crypto::SecureRandom rng(9);
  ChannelServerConfig bad = server_config();
  bad.rekey_interval = 0;
  EXPECT_THROW(ChannelServer(bad, std::move(rng), 0), std::invalid_argument);
  crypto::SecureRandom rng2(10);
  ChannelServerConfig bad2 = server_config();
  bad2.key_history = 0;
  EXPECT_THROW(ChannelServer(bad2, std::move(rng2), 0), std::invalid_argument);
}

}  // namespace
}  // namespace p2pdrm::services
