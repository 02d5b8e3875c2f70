// Decoder robustness: every wire decoder in the system is fed random bytes
// and mutated valid encodings. The contract: decoders either succeed or
// throw util::WireError — never crash, never hang, never throw anything
// else. (Handlers rely on this to turn malformed input into protocol
// rejections.)
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "core/content.h"
#include "core/messages.h"
#include "net/deployment.h"
#include "core/ticket.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
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
  // Any buffer a decoder accepts must re-encode/decode stably (no "parses
  // but corrupts" states). Checked for ContentPacket, whose inputs come from
  // untrusted peers: random header bytes and a random payload behind a
  // consistent length prefix, which must all decode, and a quarter of them
  // with one trailing byte more, which must not.
  crypto::SecureRandom rng(79);
  int accepted = 0;
  int consistent = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    util::WireWriter w;
    w.raw(rng.bytes(13));  // channel, key serial, seq
    w.bytes(rng.bytes(rng.uniform(64)));
    const bool trailing = rng.uniform(4) == 0;
    if (trailing) w.u8(static_cast<std::uint8_t>(rng.next_u32()));
    else ++consistent;
    const Bytes input = w.take();
    try {
      const core::ContentPacket p = core::ContentPacket::decode(input);
      ++accepted;
      EXPECT_EQ(p.encode(), input);
      EXPECT_EQ(core::ContentPacket::decode(p.encode()), p);
    } catch (const util::WireError&) {
      EXPECT_TRUE(trailing);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(accepted, consistent);
}

/// `head`, a u32 count, `count` copies of `item`, then `tail`.
Bytes counted_input(const Bytes& head, std::uint32_t count, const Bytes& item,
                    const Bytes& tail) {
  util::WireWriter w;
  w.raw(head);
  w.u32(count);
  for (std::uint32_t i = 0; i < count; ++i) w.raw(item);
  w.raw(tail);
  return w.take();
}

TEST(FuzzDecodeTest, CountCapsAreExact) {
  // A count at its cap decodes when the input backs every item; one more
  // item, also backed, is a WireError. Items are the smallest legal ones.
  struct Case {
    const char* name;
    std::uint32_t cap;
    Bytes head;
    Bytes item;
    Bytes tail;
    std::function<void(util::BytesView)> decode;
  };
  const Bytes u32_zero(4, 0);
  const Bytes empty_attr = {0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};  // NULL value
  const Bytes empty_term = {0, 0, 0, 0, 4};
  const Bytes empty_policy(9, 0);
  const Bytes empty_record(20, 0);
  const std::vector<Case> cases = {
      {"Switch2Response.peers", 100000, {0, 0}, Bytes(8, 0), {},
       [](util::BytesView b) { core::Switch2Response::decode(b); }},
      {"ChannelListRequest.stale_attributes", 100000, {4, 0, 0, 0, 0, 0}, u32_zero, {},
       [](util::BytesView b) { core::ChannelListRequest::decode(b); }},
      {"ChannelListResponse.channels", 100000, {0}, empty_record, u32_zero,
       [](util::BytesView b) { core::ChannelListResponse::decode(b); }},
      {"ChannelListResponse.partitions", 100000, {0, 0, 0, 0, 0}, Bytes(12, 0), {},
       [](util::BytesView b) { core::ChannelListResponse::decode(b); }},
      {"AttributeSet", 10000, {}, empty_attr, {},
       [](util::BytesView b) {
         util::WireReader r(b);
         core::AttributeSet::decode(r);
       }},
      {"Policy.terms", 10000, u32_zero, empty_term, {0},
       [](util::BytesView b) {
         util::WireReader r(b);
         core::Policy::decode(r);
       }},
      {"ChannelRecord.policies", 10000, Bytes(12, 0), empty_policy, u32_zero,
       [](util::BytesView b) {
         util::WireReader r(b);
         core::ChannelRecord::decode(r);
       }},
  };
  for (const Case& c : cases) {
    EXPECT_NO_THROW(c.decode(counted_input(c.head, c.cap, c.item, c.tail))) << c.name;
    EXPECT_THROW(c.decode(counted_input(c.head, c.cap + 1, c.item, c.tail)),
                 util::WireError)
        << c.name;
  }
}

// ---------------------------------------------------------------------------
// Acceptance digest: which damaged inputs each decoder accepts, and what it
// decodes them to. For every corpus entry the sweep feeds the decoder each
// truncation, each single-bit flip and each byte overwritten with 0x00,
// 0x01, 0x02 and 0xff, and hashes, per input, accept or reject plus the
// re-encoding of what was accepted. A changed flag check, count cap,
// trailing-byte check or field order moves that entry's digest.

struct AcceptanceEntry {
  std::string name;
  Bytes valid;
  /// Decode and re-encode; throws util::WireError on rejection.
  std::function<Bytes(util::BytesView)> reencode;
};

template <class T>
AcceptanceEntry framed(std::string name, const T& x) {
  return {std::move(name), x.encode(),
          [](util::BytesView b) { return T::decode(b).encode(); }};
}

template <class T>
AcceptanceEntry nested(std::string name, const T& x) {
  util::WireWriter w;
  x.encode(w);
  return {std::move(name), w.take(), [](util::BytesView b) {
            util::WireReader r(b);
            const T back = T::decode(r);
            if (!r.at_end()) throw util::WireError("trailing bytes");
            util::WireWriter out;
            back.encode(out);
            return out.take();
          }};
}

std::vector<AcceptanceEntry> acceptance_corpus() {
  crypto::SecureRandom rng(0xacce);
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(rng, 512);

  core::AttributeSet attrs;
  attrs.add({core::kAttrRegion, core::AttrValue::any(), 100, 200, 50});
  attrs.add({core::kAttrSubscription, core::AttrValue::of("101"), util::kNullTime,
             util::kNullTime, 7});
  attrs.add({"n", core::AttrValue::none(), 1, 2, 3});
  attrs.add({"a", core::AttrValue::all(), 4, 5, 6});
  attrs.add({"u", core::AttrValue::null(), 7, 8, 9});

  core::UserTicket ut;
  ut.user_in = 5;
  ut.client_public_key = keys.pub;
  ut.start_time = 10;
  ut.expiry_time = 20;
  ut.attributes.add({core::kAttrRegion, core::AttrValue::of("100"), 1, 2, 3});
  core::ChannelTicket ct;
  ct.user_in = 5;
  ct.channel_id = 3;
  ct.client_public_key = keys.pub;
  ct.net_addr = util::parse_netaddr("10.0.0.9");
  ct.renewal = true;
  ct.start_time = 10;
  ct.expiry_time = 20;
  const auto sut = core::SignedUserTicket::sign(ut, keys.priv);
  const auto sct = core::SignedChannelTicket::sign(ct, keys.priv);

  const core::Challenge challenge =
      core::make_challenge(util::bytes_of("secret"), "switch", util::bytes_of("b"),
                           Bytes(core::kNonceSize, 0x33), 99);

  core::ChannelRecord record;
  record.id = 4;
  record.name = "c";
  record.attributes = attrs;
  record.policies.push_back(
      *core::parse_policy("Priority 100: Region=ANY, Return REJECT"));
  record.policies.push_back(
      *core::parse_policy("Priority 50: Region=100 & Subscription=101, Return ACCEPT"));
  record.partition = 1;

  std::vector<AcceptanceEntry> c;
  c.push_back(framed("UserTicket", ut));
  c.push_back(framed("ChannelTicket", ct));
  c.push_back(framed("SignedUserTicket", sut));
  c.push_back(framed("SignedChannelTicket", sct));
  c.push_back(framed("Login1Request{}", core::Login1Request{}));
  c.push_back(framed("Login1Request", core::Login1Request{.email = "e@x",
                                                           .client_public_key = keys.pub,
                                                           .client_version = 2}));
  c.push_back(framed("Login1Response{}", core::Login1Response{}));
  c.push_back(framed("Login1Response",
                     core::Login1Response{core::DrmError::kWrongDomain,
                                          util::bytes_of("sealed"), challenge}));
  c.push_back(framed("Login2Request{}", core::Login2Request{}));
  {
    core::Login2Request m;
    m.email = "e@x";
    m.client_public_key = keys.pub;
    m.client_version = 2;
    m.params = {1, 2, 3};
    m.checksum = Bytes(4, 0xcc);
    m.challenge = challenge;
    m.proof = util::bytes_of("proof");
    c.push_back(framed("Login2Request", m));
  }
  c.push_back(framed("Login2Response{}", core::Login2Response{}));
  c.push_back(framed("Login2Response",
                     core::Login2Response{core::DrmError::kOk, sut, 1234, 2}));
  c.push_back(framed("Switch1Request{}", core::Switch1Request{}));
  c.push_back(framed("Switch1Request",
                     core::Switch1Request{.user_ticket = util::bytes_of("ut"),
                                          .channel_id = 3,
                                          .expiring_ticket = util::bytes_of("ct")}));
  c.push_back(framed("Switch1Response{}", core::Switch1Response{}));
  c.push_back(framed("Switch1Response",
                     core::Switch1Response{core::DrmError::kBadTicket, challenge}));
  c.push_back(framed("Switch2Request{}", core::Switch2Request{}));
  {
    core::Switch2Request m;
    m.user_ticket = util::bytes_of("ut");
    m.channel_id = 3;
    m.expiring_ticket = util::bytes_of("ct");
    m.challenge = challenge;
    m.proof = util::bytes_of("proof");
    c.push_back(framed("Switch2Request", m));
  }
  c.push_back(framed("Switch2Response{}", core::Switch2Response{}));
  c.push_back(framed("Switch2Response",
                     core::Switch2Response{core::DrmError::kOk, sct,
                                           {{1, util::parse_netaddr("10.0.0.1")},
                                            {2, util::parse_netaddr("10.0.0.2")}}}));
  c.push_back(framed("JoinRequest{}", core::JoinRequest{}));
  c.push_back(framed("JoinRequest",
                     core::JoinRequest{.channel_ticket = util::bytes_of("ct"),
                                       .substream_mask = 6}));
  c.push_back(framed("JoinResponse{}", core::JoinResponse{}));
  c.push_back(framed("JoinResponse",
                     core::JoinResponse{core::DrmError::kNoCapacity, util::bytes_of("sk"),
                                        util::bytes_of("ck")}));
  c.push_back(framed("ChannelListRequest{}", core::ChannelListRequest{}));
  c.push_back(framed("ChannelListRequest",
                     core::ChannelListRequest{.user_ticket = util::bytes_of("ut"),
                                              .stale_attributes = {"Region", "AS"}}));
  c.push_back(framed("ChannelListResponse{}", core::ChannelListResponse{}));
  c.push_back(framed(
      "ChannelListResponse",
      core::ChannelListResponse{
          core::DrmError::kOk,
          {record},
          {{1, util::parse_netaddr("10.1.0.1"), util::bytes_of("key")}}}));
  c.push_back(nested("ChannelRecord", record));
  c.push_back(nested("AttributeSet", attrs));
  c.push_back(nested("Challenge", challenge));
  c.push_back(nested("ContentKey", core::generate_content_key(rng, 7, 100)));
  c.push_back(framed("ContentPacket{}", core::ContentPacket{}));
  c.push_back(framed("ContentPacket", core::ContentPacket{3, 7, 11, Bytes(6, 0xee)}));
  {
    net::Envelope env;
    env.kind = net::MsgKind::kContent;
    env.request_id = 12;
    env.payload = util::bytes_of("payload");
    c.push_back({"Envelope", env.encode(), [](util::BytesView b) {
                   const std::optional<net::Envelope> e = net::Envelope::decode(b);
                   if (!e) throw util::WireError("envelope rejected");
                   return e->encode();
                 }});
  }
  c.push_back(framed("BusyPayload", net::BusyPayload{2 * util::kSecond, 9}));
  c.push_back(framed("RedirectRequest", services::RedirectRequest{"e@x"}));
  c.push_back(framed("RedirectResponse{}", services::RedirectResponse{}));
  c.push_back(framed("RedirectResponse",
                     services::RedirectResponse{
                         true, 3, {util::parse_netaddr("10.0.1.1"), util::bytes_of("um")},
                         {util::parse_netaddr("10.0.1.2"), util::bytes_of("cpm")}}));
  {
    services::ViewingLog::Entry e;
    e.user_in = 9;
    e.channel = 2;
    e.addr = util::parse_netaddr("10.0.0.3");
    e.time = 77;
    e.renewal = true;
    c.push_back({"ViewingEntry", services::encode_viewing_entry(e),
                 [](util::BytesView b) {
                   return services::encode_viewing_entry(
                       services::decode_viewing_entry(b));
                 }});
  }
  services::UserRecord rec;
  rec.user_in = 8;
  rec.account.email = "e@x";
  rec.account.shp.fill(0x11);
  rec.account.subscriptions = {{"101", 1, 2}, {"202", util::kNullTime, 5}};
  rec.account.created_at = 3;
  rec.account.suspended = true;
  c.push_back({"UserRecord", services::encode_user_record(rec), [](util::BytesView b) {
                 return services::encode_user_record(services::decode_user_record(b));
               }});
  services::UserDirectory dir;
  dir.next_user_in = 10;
  dir.users[rec.account.email] = rec;
  rec.user_in = 9;
  rec.account.email = "f@x";
  rec.account.subscriptions.clear();
  dir.users[rec.account.email] = rec;
  c.push_back({"UserDirectory", services::encode_user_directory(dir),
               [](util::BytesView b) {
                 return services::encode_user_directory(
                     services::decode_user_directory(b));
               }});
  services::ViewingLog log;
  log.set_audit_cap(2);
  log.record({9, 2, util::parse_netaddr("10.0.0.3"), 77, false});
  log.record({9, 2, util::parse_netaddr("10.0.0.3"), 78, true});
  log.record({8, 3, util::parse_netaddr("10.0.0.4"), 79, false});
  c.push_back(framed("ViewingLog", log));
  c.push_back(framed("ReplicatedOp", store::ReplicatedOp{1, 2, util::bytes_of("op")}));
  c.push_back(framed("Snapshot{}", store::Snapshot{}));
  return c;
}

/// The damaged inputs of the acceptance sweep, in order: each truncation of
/// `valid`, then per byte each single-bit flip and the overwrites with 0x00,
/// 0x01, 0x02 and 0xff.
std::vector<Bytes> damaged_inputs(const Bytes& valid) {
  std::vector<Bytes> out;
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    out.emplace_back(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
  }
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      out.push_back(valid);
      out.back()[pos] ^= static_cast<std::uint8_t>(1u << bit);
    }
    for (const std::uint8_t v : {0x00, 0x01, 0x02, 0xff}) {
      out.push_back(valid);
      out.back()[pos] = v;
    }
  }
  return out;
}

/// First 16 hex digits of the hash of the entry's accept/reject pattern.
std::string acceptance_digest(const AcceptanceEntry& entry) {
  crypto::Sha256 h;
  const auto feed = [&](const Bytes& input) {
    std::uint8_t accepted = 0;
    Bytes out;
    try {
      out = entry.reencode(input);
      accepted = 1;
    } catch (const util::WireError&) {
    }
    util::WireWriter w;
    w.u8(accepted);
    if (accepted == 1) w.bytes(out);
    h.update(w.data());
  };
  for (const Bytes& input : damaged_inputs(entry.valid)) feed(input);
  const crypto::Sha256Digest d = h.finish();
  return util::to_hex(util::BytesView(d.data(), 8));
}

TEST(FuzzDecodeTest, AcceptanceDigestPerDecoder) {
  const std::map<std::string, std::string> expected = {
      {"UserTicket", "93cd676572a17cb9"},
      {"ChannelTicket", "3ac74a467bccf8ce"},
      {"SignedUserTicket", "2bab7120b3135c29"},
      {"SignedChannelTicket", "583dbd271d33a696"},
      {"Login1Request{}", "ba482593b192795f"},
      {"Login1Request", "436304f5dba90fff"},
      {"Login1Response{}", "700f176dfbb3f0e6"},
      {"Login1Response", "a125a2560e3456cf"},
      {"Login2Request{}", "431efcafc80a7201"},
      {"Login2Request", "c21dee080e534c34"},
      {"Login2Response{}", "55c6c5bc9e6af320"},
      {"Login2Response", "70cc5bc099b1912f"},
      {"Switch1Request{}", "d8e3c4a86f33411d"},
      {"Switch1Request", "beca874a672afe15"},
      {"Switch1Response{}", "e5ca688dd834cb73"},
      {"Switch1Response", "d13fcbe9bb872793"},
      {"Switch2Request{}", "7ef82893265ecb26"},
      {"Switch2Request", "161f16fd6a92a283"},
      {"Switch2Response{}", "c69137e57406ae6a"},
      {"Switch2Response", "13f3b1572ee434a5"},
      {"JoinRequest{}", "0cefd2cc77171413"},
      {"JoinRequest", "a3559e77aca0d501"},
      {"JoinResponse{}", "74f7f93b372bac42"},
      {"JoinResponse", "3d51dc89dfc2f498"},
      {"ChannelListRequest{}", "8c8ccd88465336e5"},
      {"ChannelListRequest", "101b28e337a5cb1d"},
      {"ChannelListResponse{}", "74f7f93b372bac42"},
      {"ChannelListResponse", "498bd054d6dba044"},
      {"ChannelRecord", "341658c787c3eb75"},
      {"AttributeSet", "b40427c7bd6086c2"},
      {"Challenge", "45680649a7fddf32"},
      {"ContentKey", "be9e354f7d380f0c"},
      {"ContentPacket{}", "3018efbaeb598289"},
      {"ContentPacket", "1c65e972785a67d7"},
      {"Envelope", "d43778fabc3bb805"},
      {"BusyPayload", "6f6cabdda9aace46"},
      {"RedirectRequest", "bbb1f12cd6535ece"},
      {"RedirectResponse{}", "57f7ef48495d7492"},
      {"RedirectResponse", "1d3af61602f68c06"},
      {"ViewingEntry", "612f1e97fa62ceb1"},
      {"UserRecord", "76f5ceb4adeb9d9f"},
      {"UserDirectory", "b7566cb260693fd9"},
      {"ViewingLog", "b71632d47fd682fe"},
      {"ReplicatedOp", "b609715694b2a134"},
  };
  std::size_t checked = 0;
  for (const AcceptanceEntry& entry : acceptance_corpus()) {
    const std::string got = acceptance_digest(entry);
    const auto it = expected.find(entry.name);
    if (it == expected.end()) continue;
    EXPECT_EQ(got, it->second) << entry.name;
    ++checked;
  }
  EXPECT_EQ(checked, expected.size());
}

// The wire is canonical: each entry decodes its own encoding, and over the
// acceptance sweep's damaged inputs (every truncation and single-bit flip
// among them) whatever a decoder accepts re-encodes to exactly the bytes it
// was given, so no two wire images decode to the same value. That takes
// strict flag and presence bytes, no trailing bytes, minimal RSA integers
// and ordered directory records. Any exception but WireError fails the
// test.
TEST(FuzzDecodeTest, AcceptedInputsReencodeToThemselves) {
  for (const AcceptanceEntry& entry : acceptance_corpus()) {
    EXPECT_NO_THROW(entry.reencode(entry.valid)) << entry.name << " rejects its own encoding";
    for (const Bytes& input : damaged_inputs(entry.valid)) {
      Bytes out;
      try {
        out = entry.reencode(input);
      } catch (const util::WireError&) {
        continue;
      }
      EXPECT_EQ(util::to_hex(out), util::to_hex(input)) << entry.name;
    }
  }
}

TEST(FuzzDecodeTest, CorpusEveryEnvelopeBitFlipsGraceful) {
  // Seeded corruption of 2-4 bits of every corpus entry (the sweep above
  // covers single flips): succeed or WireError.
  crypto::SecureRandom rng(0xb17f11b);
  for (const AcceptanceEntry& entry : acceptance_corpus()) {
    if (entry.valid.empty()) continue;
    const Decoder decoder{entry.name.c_str(),
                          [&entry](util::BytesView b) { (void)entry.reencode(b); }};
    for (int iter = 0; iter < 150; ++iter) {
      Bytes mutated = entry.valid;
      const int flips = 2 + static_cast<int>(rng.uniform(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = static_cast<std::size_t>(rng.uniform(mutated.size()));
        mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
      expect_graceful(decoder, mutated);
    }
  }
}

// The receive path decodes a content packet in place: EnvelopeView over the
// received buffer, then ContentPacketView over its payload. Over every
// content-in-envelope entry and each of its damaged inputs, that must accept
// exactly when the owning decoders (Envelope, then ContentPacket) accept,
// yield the same fields, and point into the input rather than copy it.
TEST(FuzzDecodeTest, ContentViewDecodeAgreesWithOwningDecoders) {
  std::vector<Bytes> corpus;
  for (const core::ContentPacket& p :
       {core::ContentPacket{}, core::ContentPacket{3, 7, 11, Bytes(6, 0xee)}}) {
    corpus.push_back(net::Envelope{net::MsgKind::kContent, 0, p.encode()}.encode());
    corpus.push_back(net::Envelope{net::MsgKind::kContent, 12, p.encode()}.encode());
  }
  corpus.push_back(
      net::Envelope{net::MsgKind::kContent, 12, util::bytes_of("payload")}.encode());

  std::size_t inputs = 0;
  std::size_t accepted = 0;
  for (const Bytes& valid : corpus) {
    for (const Bytes& input : damaged_inputs(valid)) {
      ++inputs;
      std::optional<core::ContentPacket> owned;
      const std::optional<net::Envelope> env = net::Envelope::decode(input);
      if (env) {
        try {
          owned = core::ContentPacket::decode(env->payload);
        } catch (const util::WireError&) {
        }
      }
      std::optional<core::ContentPacketView> view;
      const std::optional<net::EnvelopeView> env_view = net::EnvelopeView::decode(input);
      ASSERT_EQ(env_view.has_value(), env.has_value()) << util::to_hex(input);
      if (env_view) {
        EXPECT_EQ(env_view->kind, env->kind);
        EXPECT_EQ(env_view->request_id, env->request_id);
        try {
          view = core::ContentPacketView::decode(env_view->payload);
        } catch (const util::WireError&) {
        }
      }
      ASSERT_EQ(view.has_value(), owned.has_value()) << util::to_hex(input);
      if (!view) continue;
      ++accepted;
      EXPECT_EQ(view->channel, owned->channel);
      EXPECT_EQ(view->key_serial, owned->key_serial);
      EXPECT_EQ(view->seq, owned->seq);
      EXPECT_EQ(Bytes(view->payload.begin(), view->payload.end()), owned->payload);
      EXPECT_GE(view->payload.data(), input.data());
      EXPECT_LE(view->payload.data() + view->payload.size(), input.data() + input.size());
    }
  }
  // The sweep exercises both verdicts.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, inputs);
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
