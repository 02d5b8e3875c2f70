// Wire-format stability: golden digests of deterministic encodings.
//
// Tickets are signed over their exact byte encoding, and deployed clients
// and servers must interoperate across releases — so the wire format is a
// compatibility contract. These tests pin the SHA-256 of reference
// encodings; any change to field order, widths, or defaults fails here
// first (and must come with a kProtocolVersion bump).
#include <gtest/gtest.h>

#include "core/content.h"
#include "core/messages.h"
#include "core/ticket.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "net/envelope.h"
#include "services/durable_ops.h"
#include "services/redirection_manager.h"

namespace p2pdrm {
namespace {

std::string digest_of(const util::Bytes& b) {
  return util::to_hex(crypto::sha256_bytes(b));
}

/// Deterministic actors shared by every golden structure.
struct GoldenActors {
  GoldenActors() : rng(424242) {
    issuer = crypto::generate_rsa_keypair(rng, 512);
    client = crypto::generate_rsa_keypair(rng, 512);
  }
  crypto::SecureRandom rng;
  crypto::RsaKeyPair issuer;
  crypto::RsaKeyPair client;
};

const GoldenActors& actors() {
  static const GoldenActors a;
  return a;
}

core::UserTicket golden_user_ticket() {
  core::UserTicket ut;
  ut.user_in = 77;
  ut.client_public_key = actors().client.pub;
  ut.start_time = 1000000;
  ut.expiry_time = 2000000;
  core::Attribute a;
  a.name = core::kAttrRegion;
  a.value = core::AttrValue::of("100");
  a.stime = util::kNullTime;
  a.etime = 5000000;
  a.utime = 123;
  ut.attributes.add(a);
  return ut;
}

core::ChannelTicket golden_channel_ticket() {
  core::ChannelTicket ct;
  ct.user_in = 77;
  ct.channel_id = 9;
  ct.client_public_key = actors().client.pub;
  ct.net_addr = util::parse_netaddr("10.1.2.3");
  ct.renewal = true;
  ct.start_time = 1;
  ct.expiry_time = 2;
  return ct;
}

TEST(WireGoldenTest, UserTicket) {
  const util::Bytes wire = golden_user_ticket().encode();
  EXPECT_EQ(wire.size(), 151u);
  EXPECT_EQ(digest_of(wire),
            "348dcf6b62e9aa19b184107e63b7e721ebbbfada5ece582fe92179eb68d3c156");
}

TEST(WireGoldenTest, SignedUserTicket) {
  const util::Bytes wire =
      core::SignedUserTicket::sign(golden_user_ticket(), actors().issuer.priv).encode();
  EXPECT_EQ(wire.size(), 223u);
  EXPECT_EQ(digest_of(wire),
            "009237d79b93f8815607651aed02e13c211d404d491986cc1f095aade03dd85b");
}

TEST(WireGoldenTest, ChannelTicket) {
  const util::Bytes wire = golden_channel_ticket().encode();
  EXPECT_EQ(wire.size(), 114u);
  EXPECT_EQ(digest_of(wire),
            "b1d0f4186d2c3bf4cb6c2c9d1d97b7ef542b90324da142f73640beefa439afde");
}

TEST(WireGoldenTest, Login1Request) {
  core::Login1Request l1;
  l1.email = "golden@example.com";
  l1.client_public_key = actors().client.pub;
  l1.client_version = 3;
  const util::Bytes wire = l1.encode();
  EXPECT_EQ(wire.size(), 107u);
  EXPECT_EQ(digest_of(wire),
            "9a2347a08444a95d88a917fc194138e8bb856012682042dca1a4ae920e78f719");
}

TEST(WireGoldenTest, Switch2Response) {
  core::Switch2Response s2;
  s2.ticket =
      core::SignedChannelTicket::sign(golden_channel_ticket(), actors().issuer.priv);
  s2.peers = {{5, util::parse_netaddr("10.0.0.5")}};
  const util::Bytes wire = s2.encode();
  EXPECT_EQ(wire.size(), 204u);
  EXPECT_EQ(digest_of(wire),
            "14cc55b33b3b2143ed1689c06bd7a065a1241aa10f4e115ea216b08291a2420f");
}

TEST(WireGoldenTest, ContentPacketAndKey) {
  crypto::SecureRandom krng(7);
  const core::ContentKey key = core::generate_content_key(krng, 3, 60000000);
  util::WireWriter kw;
  key.encode(kw);
  EXPECT_EQ(digest_of(kw.data()),
            "b5d8d3920ab1a536b57a919dfcdd5b5d5e3ff09e39430c57d67298113ef9da6a");

  const core::ContentPacket p =
      core::encrypt_packet(key, 9, 12, util::bytes_of("golden frame"));
  const util::Bytes wire = p.encode();
  EXPECT_EQ(wire.size(), 29u);
  EXPECT_EQ(digest_of(wire),
            "0b425a6f376105c071cd1f9795a67a6349fdf219b010520b34ba3a53fdb1ca83");
}

// ---------------------------------------------------------------------------
// One golden per wire struct. Each fixture sets every field away from its
// default (optional present, vectors non-empty, each AttrValue kind), pins
// the SHA-256 of its encoding, and checks that decoding and re-encoding
// gives back the same bytes. Nested structs are pinned through the message
// that carries them.

/// Size and digest of `wire`, and `again` (decode then re-encode) must
/// equal it.
void expect_golden(const util::Bytes& wire, const util::Bytes& again,
                   std::size_t size, const char* digest) {
  EXPECT_EQ(wire.size(), size);
  EXPECT_EQ(digest_of(wire), digest);
  EXPECT_EQ(again, wire) << "decode(encode(x)) does not re-encode to the same bytes";
}

template <class T>
void expect_golden(const T& x, std::size_t size, const char* digest) {
  const util::Bytes wire = x.encode();
  expect_golden(wire, T::decode(wire).encode(), size, digest);
}

/// For structs that nest inline (encode into a caller's writer).
template <class T>
util::Bytes inline_encoding(const T& x) {
  util::WireWriter w;
  x.encode(w);
  return w.take();
}

template <class T>
void expect_inline_golden(const T& x, std::size_t size, const char* digest) {
  const util::Bytes wire = inline_encoding(x);
  util::WireReader r(wire);
  const T back = T::decode(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, x);
  expect_golden(wire, inline_encoding(back), size, digest);
}

core::Challenge golden_challenge() {
  return core::make_challenge(util::bytes_of("golden farm secret"), "login",
                              util::bytes_of("golden binding"),
                              util::Bytes(core::kNonceSize, 0x5a), 12345);
}

core::ChecksumParams golden_params() { return {0x1000, 0x2000, 0x1122334455667788ull}; }

util::Bytes golden_user_ticket_wire() {
  return core::SignedUserTicket::sign(golden_user_ticket(), actors().issuer.priv)
      .encode();
}

util::Bytes golden_channel_ticket_wire() {
  return core::SignedChannelTicket::sign(golden_channel_ticket(), actors().issuer.priv)
      .encode();
}

core::AttributeSet golden_attributes() {
  core::AttributeSet set;
  set.add({core::kAttrRegion, core::AttrValue::any(), 100, 200, 50});
  set.add({core::kAttrSubscription, core::AttrValue::of("101"), util::kNullTime,
           util::kNullTime, 7});
  set.add({"Blackout", core::AttrValue::none(), 1, 2, 3});
  set.add({"Wildcard", core::AttrValue::all(), 4, 5, 6});
  set.add({"Unset", core::AttrValue::null(), 7, 8, 9});
  return set;
}

core::ChannelRecord golden_channel_record() {
  core::ChannelRecord c;
  c.id = 7;
  c.name = "golden news";
  c.attributes = golden_attributes();
  c.policies.push_back(*core::parse_policy("Priority 100: Region=ANY, Return REJECT"));
  c.policies.push_back(
      *core::parse_policy("Priority 50: Region=100 & Subscription=101, Return ACCEPT"));
  c.partition = 2;
  return c;
}

TEST(WireGoldenTest, RoundTripTicketsAndContent) {
  const util::Bytes ut = golden_user_ticket().encode();
  EXPECT_EQ(core::UserTicket::decode(ut), golden_user_ticket());
  const util::Bytes ct = golden_channel_ticket().encode();
  EXPECT_EQ(core::ChannelTicket::decode(ct), golden_channel_ticket());

  const auto sut =
      core::SignedUserTicket::sign(golden_user_ticket(), actors().issuer.priv);
  EXPECT_EQ(core::SignedUserTicket::decode(sut.encode()), sut);
  const auto sct =
      core::SignedChannelTicket::sign(golden_channel_ticket(), actors().issuer.priv);
  EXPECT_EQ(core::SignedChannelTicket::decode(sct.encode()), sct);

  crypto::SecureRandom krng(7);
  const core::ContentKey key = core::generate_content_key(krng, 3, 60000000);
  const util::Bytes key_wire = inline_encoding(key);
  util::WireReader kr(key_wire);
  EXPECT_EQ(core::ContentKey::decode(kr), key);
  EXPECT_TRUE(kr.at_end());
  const core::ContentPacket p =
      core::encrypt_packet(key, 9, 12, util::bytes_of("golden frame"));
  EXPECT_EQ(core::ContentPacket::decode(p.encode()), p);
}

TEST(WireGoldenTest, Login1Response) {
  core::Login1Response m;
  m.error = core::DrmError::kVersionTooOld;
  m.encrypted_params = util::bytes_of("sealed nonce and params");
  m.challenge = golden_challenge();
  expect_golden(m, 108u,
                "8ca61d5dee160924b7c1ef40b27edf86239b67d13c8723465a16685c210b0717");
}

TEST(WireGoldenTest, Login2Request) {
  core::Login2Request m;
  m.email = "golden@example.com";
  m.client_public_key = actors().client.pub;
  m.client_version = 3;
  m.params = golden_params();
  m.checksum = util::Bytes(32, 0xc5);
  m.challenge = golden_challenge();
  m.proof = util::bytes_of("golden proof");
  expect_golden(m, 255u,
                "6abe9ab060f51cf2300c5104df51334f1abfedc24cf1d9be9ef63ea0f729b47d");
}

TEST(WireGoldenTest, Login2Response) {
  core::Login2Response m;
  m.ticket = core::SignedUserTicket::sign(golden_user_ticket(), actors().issuer.priv);
  m.server_time = 987654321;
  m.minimum_version = 2;
  expect_golden(m, 241u,
                "131d3703fa677be9a9cd755ad6b822d0d5649b17d6760946849b0fd98b91d979");
  core::Login2Response refused;
  refused.error = core::DrmError::kAttestationFailed;
  refused.server_time = -5;
  expect_golden(refused, 14u,
                "fcc59db82bf42d80bfc467bbbe523d990c30a38965ec8f9bc7c1bec021dd7c0a");
}

TEST(WireGoldenTest, Switch1Request) {
  core::Switch1Request m;
  m.user_ticket = golden_user_ticket_wire();
  m.channel_id = 9;
  m.expiring_ticket = golden_channel_ticket_wire();
  expect_golden(m, 423u,
                "eaa13d23b9ff1869242c1ff20472b1f7112832ac85172183884454c827618008");
}

TEST(WireGoldenTest, Switch1Response) {
  core::Switch1Response m;
  m.error = core::DrmError::kWrongDomain;
  m.challenge = golden_challenge();
  expect_golden(m, 81u,
                "e6eb37ffa916926caeb6c2891e36eae8808eb0dd5edabd5a16290b215bfbaae2");
}

TEST(WireGoldenTest, Switch2Request) {
  core::Switch2Request m;
  m.user_ticket = golden_user_ticket_wire();
  m.channel_id = 9;
  m.expiring_ticket = golden_channel_ticket_wire();
  m.challenge = golden_challenge();
  m.proof = util::bytes_of("golden switch proof");
  expect_golden(m, 526u,
                "bbe4cb8ce2c85420217d331fb2cab7c0ccbf95e2f663ab962adf3edb1611b5de");
}

TEST(WireGoldenTest, Switch2ResponseRoundTrip) {
  core::Switch2Response m;
  m.error = core::DrmError::kRenewalRefused;
  m.ticket =
      core::SignedChannelTicket::sign(golden_channel_ticket(), actors().issuer.priv);
  m.peers = {{5, util::parse_netaddr("10.0.0.5")}, {6, util::parse_netaddr("10.0.0.6")}};
  expect_golden(m, 212u,
                "67bf84c170b7598a28725429ee16679170a5dd81a97a28925192bf1ce7de957d");
  EXPECT_EQ(core::Switch2Response::decode(m.encode()).peers, m.peers);
}

TEST(WireGoldenTest, JoinRequest) {
  core::JoinRequest m;
  m.channel_ticket = golden_channel_ticket_wire();
  m.substream_mask = 0x5;
  expect_golden(m, 196u,
                "20335b0414fd5898bc92420153e8eec9040ba90bbe252ea410c2c12a2c08b2f2");
}

TEST(WireGoldenTest, JoinResponse) {
  core::JoinResponse m;
  m.error = core::DrmError::kNoCapacity;
  m.encrypted_session_key = util::bytes_of("sealed session key");
  m.encrypted_content_key = util::bytes_of("wrapped content key");
  expect_golden(m, 46u,
                "294d3605043a60996f8ed4918e55d6ff7219f2dbdca8d66ee6be24278d01fdc8");
}

TEST(WireGoldenTest, ChannelListRequest) {
  core::ChannelListRequest m;
  m.user_ticket = golden_user_ticket_wire();
  m.stale_attributes = {core::kAttrRegion, core::kAttrSubscription};
  expect_golden(m, 259u,
                "93ffd96a0ba786f831233282db2dd19032515e8b891871c17c92cb64c6c979e4");
}

TEST(WireGoldenTest, ChannelListResponse) {
  core::ChannelListResponse m;
  m.error = core::DrmError::kAccessDenied;
  m.channels = {golden_channel_record(), core::ChannelRecord{}};
  m.partitions = {{2, util::parse_netaddr("10.2.0.1"), actors().issuer.pub.encode()},
                  {3, util::parse_netaddr("10.3.0.1"), {}}};
  expect_golden(m, 421u,
                "d6aac25721d24670587130198da8b6d5a9dbd317b81979f6e0001fea74622315");
  const core::ChannelListResponse back = core::ChannelListResponse::decode(m.encode());
  EXPECT_EQ(back.channels, m.channels);
  EXPECT_EQ(back.partitions, m.partitions);
}

TEST(WireGoldenTest, ChannelRecordAttributesChallenge) {
  expect_inline_golden(golden_channel_record(), 293u,
                "3664d2b92f115b2ec5d281f600765051dcb75d2db9a6130d157c514b1c1a032e");
  expect_inline_golden(golden_attributes(), 195u,
                "515287989445ede13791e43f54a3f8e4428b7859054e35bdca18a5d7fe3b890f");
  expect_inline_golden(golden_challenge(), 80u,
                "6e5220e3da1b583775dc08dfa250ac84e2eb98b0e482e2c9d1fadb231716ccd9");
}

TEST(WireGoldenTest, EnvelopeAndBusy) {
  net::Envelope env;
  env.kind = net::MsgKind::kSwitch2Request;
  env.request_id = 0x0102030405060708ull;
  env.payload = util::bytes_of("golden payload");
  const util::Bytes wire = env.encode();
  expect_golden(wire, net::Envelope::decode(wire)->encode(), 27u,
                "12bbc57d498992ea31a71e538930775fb6bb370b83fb6813c2c93997fa8e993b");

  net::BusyPayload busy;
  busy.retry_after = 1500 * util::kMillisecond;
  busy.queue_depth = 42;
  expect_golden(busy, 12u,
                "b9b147186e80d55585680105fde005a9b5eac85f524406a9e7de4478f60105d3");
}

/// A content packet written in place as an envelope's payload
/// (util::Nested) is the same bytes as the envelope around its encoding,
/// and reads back through the views without a copy.
TEST(WireGoldenTest, ContentEnvelopeWrittenInPlace) {
  crypto::SecureRandom krng(7);
  const core::ContentKey key = core::generate_content_key(krng, 3, 60000000);
  const core::ContentPacket p =
      core::encrypt_packet(key, 9, 12, util::bytes_of("golden frame"));
  using InPlace = net::BasicEnvelope<util::Nested<core::ContentPacket>>;
  const util::Bytes wire = InPlace{net::MsgKind::kContent, 5, {p}}.encode();
  EXPECT_EQ(wire, (net::Envelope{net::MsgKind::kContent, 5, p.encode()}.encode()));

  const auto env = net::EnvelopeView::decode(wire);
  ASSERT_TRUE(env.has_value());
  const core::ContentPacketView view = core::ContentPacketView::decode(env->payload);
  EXPECT_EQ(view.channel, p.channel);
  EXPECT_EQ(view.key_serial, p.key_serial);
  EXPECT_EQ(view.seq, p.seq);
  EXPECT_EQ(util::Bytes(view.payload.begin(), view.payload.end()), p.payload);
  EXPECT_EQ(view.payload.data() + view.payload.size(), wire.data() + wire.size());
  EXPECT_EQ(core::decrypt_packet(key, view), util::bytes_of("golden frame"));
}

TEST(WireGoldenTest, Redirect) {
  expect_golden(services::RedirectRequest{"golden@example.com"}, 22u,
                "637b314581c9fc36da8b63604a577f2ce368fc88c775ef8a1b67a5b64ee16f0e");
  services::RedirectResponse m;
  m.found = true;
  m.domain = 3;
  m.user_manager = {util::parse_netaddr("10.0.1.1"), actors().issuer.pub.encode()};
  m.channel_policy_manager = {util::parse_netaddr("10.0.1.2"), util::bytes_of("cpm key")};
  expect_golden(m, 103u,
                "274418877d26bb432bcc0488b08cd076d26ef0bbcb0162cbf8f959215c07e479");
  const services::RedirectResponse back = services::RedirectResponse::decode(m.encode());
  EXPECT_EQ(back.user_manager, m.user_manager);
  EXPECT_EQ(back.channel_policy_manager, m.channel_policy_manager);
}

services::UserRecord golden_user_record() {
  services::UserRecord rec;
  rec.user_in = 77;
  rec.account.email = "golden@example.com";
  for (std::size_t i = 0; i < rec.account.shp.size(); ++i) {
    rec.account.shp[i] = static_cast<std::uint8_t>(i * 7);
  }
  rec.account.subscriptions = {{"101", 10, 20},
                               {"202", util::kNullTime, util::kNullTime}};
  rec.account.created_at = 4242;
  rec.account.suspended = true;
  return rec;
}

TEST(WireGoldenTest, DurableOps) {
  services::ViewingLog::Entry e;
  e.user_in = 77;
  e.channel = 9;
  e.addr = util::parse_netaddr("10.1.2.3");
  e.time = 123456;
  e.renewal = true;
  const util::Bytes entry = services::encode_viewing_entry(e);
  expect_golden(entry,
                services::encode_viewing_entry(services::decode_viewing_entry(entry)),
                25u,
                "49da70a362841d7a933aad66a94bc7045dba99d903d3f40f8f2dd6cb7b91d34b");

  const util::Bytes rec = services::encode_user_record(golden_user_record());
  expect_golden(rec, services::encode_user_record(services::decode_user_record(rec)),
                121u,
                "9eff20476a80d33a9dd6674bb4e322d2c5cf69446ab5e6cfab05d886dbf501dd");

  services::UserDirectory dir;
  dir.next_user_in = 79;
  services::UserRecord other = golden_user_record();
  other.user_in = 78;
  other.account.email = "other@example.com";
  other.account.subscriptions.clear();
  other.account.suspended = false;
  dir.users[golden_user_record().account.email] = golden_user_record();
  dir.users[other.account.email] = other;
  const util::Bytes wire = services::encode_user_directory(dir);
  expect_golden(wire,
                services::encode_user_directory(services::decode_user_directory(wire)),
                207u,
                "9cd3e6835f6bb42e2063f6166abc28dab7e67254280e61b096156d8957b1fa37");
}

TEST(WireGoldenTest, ProtocolVersionPinned) {
  // Bump this assertion together with any golden digest change.
  // v4: JoinRequest gained substream_mask (peer-division multiplexing).
  EXPECT_EQ(core::kProtocolVersion, 4);
}

TEST(WireGoldenTest, DrbgPinned) {
  // The golden structures above depend on SecureRandom determinism; pin the
  // DRBG's output so a drift there is diagnosed directly.
  crypto::SecureRandom rng(424242);
  EXPECT_EQ(util::to_hex(rng.bytes(16)), "941c27a4f504e9959ee5aff02050019a");
}

}  // namespace
}  // namespace p2pdrm
