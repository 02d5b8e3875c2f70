// Decoder robustness: every wire decoder in the system is fed random bytes
// and mutated valid encodings. The contract: decoders either succeed or
// throw util::WireError — never crash, never hang, never throw anything
// else. (Handlers rely on this to turn malformed input into protocol
// rejections.)
#include <gtest/gtest.h>

#include <functional>

#include "core/content.h"
#include "core/messages.h"
#include "net/deployment.h"
#include "core/ticket.h"
#include "crypto/chacha20.h"
#include "net/envelope.h"
#include "services/catalog.h"
#include "services/channel_manager.h"
#include "services/durable_ops.h"
#include "services/redirection_manager.h"
#include "store/farm_store.h"
#include "store/journal.h"
#include "store/snapshot.h"

namespace p2pdrm {
namespace {

using util::Bytes;

struct Decoder {
  const char* name;
  std::function<void(util::BytesView)> decode;
};

std::vector<Decoder> all_decoders() {
  return {
      {"UserTicket", [](util::BytesView b) { core::UserTicket::decode(b); }},
      {"ChannelTicket", [](util::BytesView b) { core::ChannelTicket::decode(b); }},
      {"SignedUserTicket",
       [](util::BytesView b) { core::SignedUserTicket::decode(b); }},
      {"SignedChannelTicket",
       [](util::BytesView b) { core::SignedChannelTicket::decode(b); }},
      {"Login1Request", [](util::BytesView b) { core::Login1Request::decode(b); }},
      {"Login1Response", [](util::BytesView b) { core::Login1Response::decode(b); }},
      {"Login2Request", [](util::BytesView b) { core::Login2Request::decode(b); }},
      {"Login2Response", [](util::BytesView b) { core::Login2Response::decode(b); }},
      {"Switch1Request", [](util::BytesView b) { core::Switch1Request::decode(b); }},
      {"Switch1Response", [](util::BytesView b) { core::Switch1Response::decode(b); }},
      {"Switch2Request", [](util::BytesView b) { core::Switch2Request::decode(b); }},
      {"Switch2Response", [](util::BytesView b) { core::Switch2Response::decode(b); }},
      {"JoinRequest", [](util::BytesView b) { core::JoinRequest::decode(b); }},
      {"JoinResponse", [](util::BytesView b) { core::JoinResponse::decode(b); }},
      {"ChannelListRequest",
       [](util::BytesView b) { core::ChannelListRequest::decode(b); }},
      {"ChannelListResponse",
       [](util::BytesView b) { core::ChannelListResponse::decode(b); }},
      {"ContentPacket", [](util::BytesView b) { core::ContentPacket::decode(b); }},
      {"RedirectRequest",
       [](util::BytesView b) { services::RedirectRequest::decode(b); }},
      {"RedirectResponse",
       [](util::BytesView b) { services::RedirectResponse::decode(b); }},
      {"ChannelRecord",
       [](util::BytesView b) {
         util::WireReader r(b);
         core::ChannelRecord::decode(r);
       }},
      {"AttributeSet",
       [](util::BytesView b) {
         util::WireReader r(b);
         core::AttributeSet::decode(r);
       }},
      {"Challenge",
       [](util::BytesView b) {
         util::WireReader r(b);
         core::Challenge::decode(r);
       }},
      {"BusyPayload", [](util::BytesView b) { net::BusyPayload::decode(b); }},
      {"Snapshot", [](util::BytesView b) { store::Snapshot::decode(b); }},
      {"ReplicatedOp", [](util::BytesView b) { store::ReplicatedOp::decode(b); }},
      {"ViewingEntry",
       [](util::BytesView b) { services::decode_viewing_entry(b); }},
      {"UserRecord", [](util::BytesView b) { services::decode_user_record(b); }},
      {"UserDirectory",
       [](util::BytesView b) { services::decode_user_directory(b); }},
      {"ContentKey",
       [](util::BytesView b) {
         util::WireReader r(b);
         core::ContentKey::decode(r);
       }},
  };
}

/// Run one buffer through a decoder; only success or WireError is legal.
void expect_graceful(const Decoder& decoder, const Bytes& input) {
  try {
    decoder.decode(input);
  } catch (const util::WireError&) {
    // expected failure mode
  } catch (const std::exception& e) {
    FAIL() << decoder.name << " threw non-WireError: " << e.what();
  }
}

TEST(FuzzDecodeTest, RandomBytes) {
  crypto::SecureRandom rng(0xf22);
  for (const Decoder& decoder : all_decoders()) {
    for (int iter = 0; iter < 200; ++iter) {
      const std::size_t len = static_cast<std::size_t>(rng.uniform(512));
      expect_graceful(decoder, rng.bytes(len));
    }
  }
}

TEST(FuzzDecodeTest, EmptyInput) {
  for (const Decoder& decoder : all_decoders()) {
    expect_graceful(decoder, {});
  }
}

TEST(FuzzDecodeTest, AllZeros) {
  for (const Decoder& decoder : all_decoders()) {
    for (std::size_t len : {1u, 4u, 16u, 64u, 256u}) {
      expect_graceful(decoder, Bytes(len, 0));
    }
  }
}

TEST(FuzzDecodeTest, AllOnes) {
  // 0xff bytes maximize length prefixes — the classic overallocation trap.
  for (const Decoder& decoder : all_decoders()) {
    for (std::size_t len : {4u, 16u, 64u}) {
      expect_graceful(decoder, Bytes(len, 0xff));
    }
  }
}

TEST(FuzzDecodeTest, MutatedValidTicket) {
  crypto::SecureRandom rng(77);
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(rng, 512);
  core::UserTicket ticket;
  ticket.user_in = 1;
  ticket.client_public_key = keys.pub;
  ticket.expiry_time = 100;
  core::Attribute a;
  a.name = core::kAttrRegion;
  a.value = core::AttrValue::of("100");
  ticket.attributes.add(a);
  const Bytes valid = core::SignedUserTicket::sign(ticket, keys.priv).encode();

  const Decoder decoder{"SignedUserTicket", [](util::BytesView b) {
                          core::SignedUserTicket::decode(b);
                        }};
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = static_cast<std::size_t>(rng.uniform(mutated.size()));
      mutated[pos] = static_cast<std::uint8_t>(rng.next_u32());
    }
    expect_graceful(decoder, mutated);
  }
}

TEST(FuzzDecodeTest, TruncatedValidMessages) {
  crypto::SecureRandom rng(78);
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(rng, 512);
  core::Login2Request req;
  req.email = "user@example.com";
  req.client_public_key = keys.pub;
  req.checksum = rng.bytes(32);
  req.challenge = core::make_challenge(rng.bytes(32), "login", rng.bytes(8),
                                       rng.bytes(core::kNonceSize), 0);
  req.proof = rng.bytes(64);
  const Bytes valid = req.encode();

  const Decoder decoder{"Login2Request", [](util::BytesView b) {
                          core::Login2Request::decode(b);
                        }};
  for (std::size_t len = 0; len < valid.size(); ++len) {
    expect_graceful(decoder, Bytes(valid.begin(),
                                   valid.begin() + static_cast<std::ptrdiff_t>(len)));
  }
}

TEST(FuzzDecodeTest, CatalogParserNeverThrows) {
  // The operator config parser reports errors by value; no input may make
  // it throw or crash.
  crypto::SecureRandom rng(80);
  const char charset[] = "channel attribute policy Priority Return ACCEPT REJECT "
                         "\"= &:,0123456789\n\t#";
  for (int iter = 0; iter < 500; ++iter) {
    std::string text;
    const std::size_t len = rng.uniform(400);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(charset[rng.uniform(sizeof(charset) - 1)]);
    }
    const services::CatalogParseResult result = services::parse_catalog(text);
    // Either parses or reports an error; never both empty-and-failed states.
    if (!result.ok()) {
      EXPECT_TRUE(result.channels.empty());
    }
  }
}

TEST(FuzzDecodeTest, PolicyParserNeverThrows) {
  crypto::SecureRandom rng(81);
  const char charset[] = "Priority Return ACCEPT REJECT Region=ANY &:,0123456789 ";
  for (int iter = 0; iter < 1000; ++iter) {
    std::string text;
    const std::size_t len = rng.uniform(120);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(charset[rng.uniform(sizeof(charset) - 1)]);
    }
    (void)core::parse_policy(text);  // must not throw
  }
}

TEST(FuzzDecodeTest, ViewingLogDecodeGraceful) {
  crypto::SecureRandom rng(82);
  for (int iter = 0; iter < 300; ++iter) {
    const Bytes input = rng.bytes(rng.uniform(200));
    try {
      (void)services::ViewingLog::decode(input);
    } catch (const util::WireError&) {
    }
  }
}

TEST(FuzzDecodeTest, BusyPayloadRoundTrip) {
  net::BusyPayload busy;
  busy.retry_after = 1500 * util::kMillisecond;
  busy.queue_depth = 42;
  const net::BusyPayload back = net::BusyPayload::decode(busy.encode());
  EXPECT_EQ(back.retry_after, busy.retry_after);
  EXPECT_EQ(back.queue_depth, busy.queue_depth);
}

TEST(FuzzDecodeTest, BusyPayloadTruncationsRejected) {
  net::BusyPayload busy;
  busy.retry_after = 2 * util::kSecond;
  busy.queue_depth = 7;
  const Bytes valid = busy.encode();
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_THROW(net::BusyPayload::decode(Bytes(
                     valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len))),
                 util::WireError)
        << "truncated to " << len << " bytes";
  }
  Bytes trailing = valid;
  trailing.push_back(0);
  EXPECT_THROW(net::BusyPayload::decode(trailing), util::WireError);
}

TEST(FuzzDecodeTest, BusyPayloadRetryAfterRangeChecked) {
  // A malicious/corrupt BUSY must not park a client forever (or travel back
  // in time): retry-after is bounded to [0, kMaxRetryAfter] at decode.
  for (const util::SimTime bad : {static_cast<util::SimTime>(-1),
                                  net::BusyPayload::kMaxRetryAfter + 1,
                                  std::numeric_limits<util::SimTime>::max(),
                                  std::numeric_limits<util::SimTime>::min()}) {
    util::WireWriter w;
    w.i64(bad);
    w.u32(1);
    EXPECT_THROW(net::BusyPayload::decode(w.take()), util::WireError)
        << "retry_after " << bad;
  }
  // The boundary itself is legal.
  util::WireWriter w;
  w.i64(net::BusyPayload::kMaxRetryAfter);
  w.u32(0);
  EXPECT_EQ(net::BusyPayload::decode(w.take()).retry_after,
            net::BusyPayload::kMaxRetryAfter);
}

TEST(FuzzDecodeTest, EnvelopeRejectsKindsPastBusy) {
  // kBusy widened the envelope's kind range; anything beyond it must still
  // be rejected (forward compatibility stays an explicit decision).
  net::Envelope env;
  env.kind = net::MsgKind::kBusy;
  env.request_id = 9;
  env.payload = net::BusyPayload{}.encode();
  const Bytes wire = env.encode();
  ASSERT_TRUE(net::Envelope::decode(wire).has_value());
  Bytes bumped = wire;
  bumped[0] = static_cast<std::uint8_t>(net::MsgKind::kBusy) + 1;
  EXPECT_FALSE(net::Envelope::decode(bumped).has_value());
  bumped[0] = 0;
  EXPECT_FALSE(net::Envelope::decode(bumped).has_value());
}

TEST(FuzzDecodeTest, JournalReplayNeverThrowsOnArbitraryImages) {
  // Replay is the one "decoder" that must not even throw: recovery calls
  // it on whatever survived the crash. Any input yields a valid prefix.
  crypto::SecureRandom rng(0x17a1);
  for (int iter = 0; iter < 300; ++iter) {
    const Bytes image = rng.bytes(rng.uniform(600));
    const store::Journal::ReplayResult r = store::Journal::replay(image);
    EXPECT_EQ(r.valid_bytes + r.corrupt_bytes, image.size());
  }
  for (std::size_t len : {0u, 1u, 19u, 20u, 21u, 64u}) {
    (void)store::Journal::replay(Bytes(len, 0x00));
    (void)store::Journal::replay(Bytes(len, 0xff));
  }
}

TEST(FuzzDecodeTest, JournalReplayMutationsKeepValidPrefix) {
  // Flip bytes in a valid journal image: replay stops at the first record
  // the mutation invalidates and every surviving record is intact.
  store::Journal j;
  for (int i = 0; i < 8; ++i) {
    j.append(util::bytes_of("record payload " + std::to_string(i)));
  }
  j.sync();
  const Bytes valid = j.durable();
  crypto::SecureRandom rng(0x17a2);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = valid;
    mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(
        1 + rng.uniform(255));
    const store::Journal::ReplayResult r = store::Journal::replay(mutated);
    EXPECT_LE(r.records.size(), 8u);
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      EXPECT_EQ(r.records[i].seq, i + 1);  // prefix, in order, no gaps
    }
  }
}

TEST(FuzzDecodeTest, JournalReplayCountsCorruptTails) {
  store::Journal j;
  j.append(util::bytes_of("good"));
  j.sync();
  Bytes image = j.durable();
  const Bytes junk = {0xde, 0xad, 0xbe, 0xef};
  image.insert(image.end(), junk.begin(), junk.end());

  obs::Registry reg;
  const store::Journal::ReplayResult r = store::Journal::replay(image, &reg);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_FALSE(r.clean);
  ASSERT_NE(reg.find_counter("store.replay.corrupt"), nullptr);
  EXPECT_EQ(reg.find_counter("store.replay.corrupt")->value(), 1u);
  EXPECT_EQ(reg.find_counter("store.replay.corrupt_bytes")->value(), junk.size());
}

TEST(FuzzDecodeTest, ViewingEntryRoundTripAfterFuzzDecode) {
  services::ViewingLog::Entry e;
  e.user_in = 7;
  e.channel = 3;
  e.addr = util::parse_netaddr("10.0.0.7");
  e.time = 123456;
  e.renewal = true;
  const Bytes wire = services::encode_viewing_entry(e);
  const services::ViewingLog::Entry back = services::decode_viewing_entry(wire);
  EXPECT_EQ(back.user_in, e.user_in);
  EXPECT_EQ(back.channel, e.channel);
  EXPECT_EQ(back.addr, e.addr);
  EXPECT_EQ(back.time, e.time);
  EXPECT_EQ(back.renewal, e.renewal);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(services::decode_viewing_entry({wire.data(), len}),
                 util::WireError);
  }
}

/// One valid encoding per wire envelope payload, paired with its decoder.
/// Default-constructed messages encode to legal (if boring) wire images;
/// the corpus tests below truncate and bit-flip each one.
struct CorpusEntry {
  const char* name;
  Bytes valid;
  std::function<void(util::BytesView)> decode;
};

std::vector<CorpusEntry> envelope_corpus() {
  std::vector<CorpusEntry> corpus;
  const auto add = [&corpus](const char* name, Bytes valid,
                             std::function<void(util::BytesView)> decode) {
    corpus.push_back({name, std::move(valid), std::move(decode)});
  };
  add("RedirectRequest", services::RedirectRequest{"a@b.c"}.encode(),
      [](util::BytesView b) { services::RedirectRequest::decode(b); });
  add("RedirectResponse", services::RedirectResponse{}.encode(),
      [](util::BytesView b) { services::RedirectResponse::decode(b); });
  add("Login1Request", core::Login1Request{}.encode(),
      [](util::BytesView b) { core::Login1Request::decode(b); });
  add("Login1Response", core::Login1Response{}.encode(),
      [](util::BytesView b) { core::Login1Response::decode(b); });
  add("Login2Request", core::Login2Request{}.encode(),
      [](util::BytesView b) { core::Login2Request::decode(b); });
  add("Login2Response", core::Login2Response{}.encode(),
      [](util::BytesView b) { core::Login2Response::decode(b); });
  add("ChannelListRequest", core::ChannelListRequest{}.encode(),
      [](util::BytesView b) { core::ChannelListRequest::decode(b); });
  add("ChannelListResponse", core::ChannelListResponse{}.encode(),
      [](util::BytesView b) { core::ChannelListResponse::decode(b); });
  add("Switch1Request", core::Switch1Request{}.encode(),
      [](util::BytesView b) { core::Switch1Request::decode(b); });
  add("Switch1Response", core::Switch1Response{}.encode(),
      [](util::BytesView b) { core::Switch1Response::decode(b); });
  add("Switch2Request", core::Switch2Request{}.encode(),
      [](util::BytesView b) { core::Switch2Request::decode(b); });
  add("Switch2Response", core::Switch2Response{}.encode(),
      [](util::BytesView b) { core::Switch2Response::decode(b); });
  add("JoinRequest", core::JoinRequest{}.encode(),
      [](util::BytesView b) { core::JoinRequest::decode(b); });
  add("JoinResponse", core::JoinResponse{}.encode(),
      [](util::BytesView b) { core::JoinResponse::decode(b); });
  // Renewal presentation carries a SignedChannelTicket on the wire.
  {
    crypto::SecureRandom rng(0xc0de);
    const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(rng, 512);
    core::ChannelTicket t;
    t.user_in = 3;
    t.channel_id = 1;
    t.expiry_time = 500;
    add("SignedChannelTicket(renewal)",
        core::SignedChannelTicket::sign(t, keys.priv).encode(),
        [](util::BytesView b) { core::SignedChannelTicket::decode(b); });
  }
  add("ContentPacket", core::ContentPacket{}.encode(),
      [](util::BytesView b) { core::ContentPacket::decode(b); });
  add("BusyPayload", net::BusyPayload{}.encode(),
      [](util::BytesView b) { net::BusyPayload::decode(b); });
  add("Snapshot", store::Snapshot{}.encode(),
      [](util::BytesView b) { store::Snapshot::decode(b); });
  {
    store::ReplicatedOp op;
    op.origin = 1;
    op.origin_seq = 1;  // decode rejects zero seq
    op.payload = util::bytes_of("gossip payload");
    add("ReplicatedOp", op.encode(),
        [](util::BytesView b) { store::ReplicatedOp::decode(b); });
  }
  {
    services::ViewingLog::Entry e;
    e.user_in = 9;
    e.channel = 2;
    e.time = 77;
    add("ViewingEntry", services::encode_viewing_entry(e),
        [](util::BytesView b) { services::decode_viewing_entry(b); });
  }
  return corpus;
}

TEST(FuzzDecodeTest, CorpusEveryEnvelopeDecodesItsOwnEncoding) {
  for (const CorpusEntry& entry : envelope_corpus()) {
    EXPECT_NO_THROW(entry.decode(entry.valid)) << entry.name;
  }
}

TEST(FuzzDecodeTest, CorpusEveryEnvelopeTruncationGraceful) {
  // Every prefix of every valid envelope payload: succeed or WireError.
  for (const CorpusEntry& entry : envelope_corpus()) {
    const Decoder decoder{entry.name, entry.decode};
    for (std::size_t len = 0; len < entry.valid.size(); ++len) {
      expect_graceful(decoder, Bytes(entry.valid.begin(),
                                     entry.valid.begin() +
                                         static_cast<std::ptrdiff_t>(len)));
    }
  }
}

TEST(FuzzDecodeTest, CorpusEveryEnvelopeBitFlipsGraceful) {
  // Seeded single- and multi-bit corruption of every valid envelope payload.
  crypto::SecureRandom rng(0xb17f11b);
  for (const CorpusEntry& entry : envelope_corpus()) {
    if (entry.valid.empty()) continue;
    const Decoder decoder{entry.name, entry.decode};
    for (int iter = 0; iter < 150; ++iter) {
      Bytes mutated = entry.valid;
      const int flips = 1 + static_cast<int>(rng.uniform(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniform(mutated.size()));
        mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
      expect_graceful(decoder, mutated);
    }
  }
}

TEST(FuzzDecodeTest, EnvelopeFramingNeverThrows) {
  // The outer envelope reports failure by value (optional), never by
  // exception: random bytes, truncations, and bit-flips of a valid frame.
  crypto::SecureRandom rng(0xe27);
  net::Envelope env;
  env.kind = net::MsgKind::kLogin1Request;
  env.request_id = 77;
  env.payload = rng.bytes(40);
  const Bytes wire = env.encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_NO_THROW((void)net::Envelope::decode({wire.data(), len}));
  }
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = wire;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_NO_THROW((void)net::Envelope::decode(mutated));
  }
  for (int iter = 0; iter < 300; ++iter) {
    EXPECT_NO_THROW((void)net::Envelope::decode(rng.bytes(rng.uniform(128))));
  }
}

TEST(FuzzDecodeTest, KeyBlobUnwrapNeverThrows) {
  // The key-distribution blob (kKeyBlob) reports failure by value: random
  // bytes and corrupted valid wraps yield nullopt, never an exception.
  crypto::SecureRandom rng(0x5e55);
  const core::SessionKey session = core::generate_session_key(rng);
  const core::ContentKey key = core::generate_content_key(rng, 1, 100);
  const Bytes valid = core::wrap_content_key(key, session, 0);
  ASSERT_TRUE(core::unwrap_content_key(valid, session).has_value());
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_NO_THROW(
        (void)core::unwrap_content_key({valid.data(), len}, session));
  }
  for (int iter = 0; iter < 300; ++iter) {
    Bytes mutated = valid;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_NO_THROW((void)core::unwrap_content_key(mutated, session));
    EXPECT_NO_THROW(
        (void)core::unwrap_content_key(rng.bytes(rng.uniform(96)), session));
  }
}

TEST(FuzzDecodeTest, RoundTripAfterSuccessfulFuzzDecode) {
  // Any random buffer a decoder accepts must re-encode/decode stably (no
  // "parses but corrupts" states). Checked for ContentPacket, whose inputs
  // come from untrusted peers.
  crypto::SecureRandom rng(79);
  int accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes input = rng.bytes(17 + static_cast<std::size_t>(rng.uniform(64)));
    try {
      const core::ContentPacket p = core::ContentPacket::decode(input);
      ++accepted;
      EXPECT_EQ(core::ContentPacket::decode(p.encode()), p);
    } catch (const util::WireError&) {
    }
  }
  // With a 4-byte length prefix most random buffers fail; some must pass.
  (void)accepted;
}

// ---------------------------------------------------------------------------
// Deployment-level contract: a malformed payload that reaches a service node
// is rejected AND counted — the "server.drops{malformed}" counter is how
// operators (and the abuse gate) see fuzzing pressure.

class NullSink final : public net::Node {
 public:
  void on_packet(const net::Packet&) override {}
};

TEST(FuzzDecodeTest, MalformedServiceRequestsAreCountedAndDropped) {
  net::DeploymentConfig cfg;
  cfg.seed = 99;
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 2 * util::kMillisecond;
  cfg.processing.light = 100;
  cfg.processing.heavy = 200;
  net::Deployment d(cfg);
  d.add_user("alice@example.com", "pw");
  d.add_regional_channel(1, "news", d.geo().region_at(0));
  d.start_channel_server(1);

  NullSink sink;
  const util::NodeId attacker = 900;
  d.network().attach(attacker, util::parse_netaddr("10.9.9.9"), &sink);

  // An empty payload fails every request decoder (all have length-prefixed
  // fields), so each send below must land in the malformed bucket.
  const auto send_malformed = [&](util::NodeId to, net::MsgKind kind) {
    net::Envelope env;
    env.kind = kind;
    env.request_id = 1;
    d.network().send(attacker, to, env.encode());
  };
  int sent = 0;
  const auto probe = [&](util::NodeId to, net::MsgKind kind) {
    if (!d.network().attached(to)) return;
    send_malformed(to, kind);
    ++sent;
  };
  probe(net::Deployment::kRedirectionNode, net::MsgKind::kRedirectRequest);
  probe(net::Deployment::kUserManagerNode, net::MsgKind::kLogin1Request);
  probe(net::Deployment::kUserManagerNode, net::MsgKind::kLogin2Request);
  probe(net::Deployment::kChannelPolicyNode, net::MsgKind::kChannelListRequest);
  for (util::NodeId cm = net::Deployment::kChannelManagerBase;
       cm < net::Deployment::kChannelManagerBase + 8; ++cm) {
    probe(cm, net::MsgKind::kSwitch1Request);
    probe(cm, net::MsgKind::kSwitch2Request);
  }
  // The channel root serves JOIN through the same routine.
  ASSERT_TRUE(d.network().attached(net::Deployment::kChannelRootBase + 1));
  probe(net::Deployment::kChannelRootBase + 1, net::MsgKind::kJoinRequest);
  ASSERT_GE(sent, 5);

  d.run_for(1 * util::kSecond);
  const obs::Counter* drops = d.registry().find_counter("server.drops{malformed}");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->value(), static_cast<std::uint64_t>(sent));
  d.network().detach(attacker);
}

}  // namespace
}  // namespace p2pdrm
