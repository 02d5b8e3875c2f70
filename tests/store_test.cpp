// Durable farm state (src/store): journal append/sync/crash semantics,
// torn-tail replay, snapshot round-trips, and the FarmStore replication
// protocol (watermarks, anti-entropy, full-state transfer). Plus the
// headline determinism property: recovering a journaled ViewingLog yields
// a byte-identical encode() — replay is deterministic.
#include <gtest/gtest.h>

#include <string>

#include "obs/registry.h"
#include "services/channel_manager.h"
#include "services/durable_ops.h"
#include "store/farm_store.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "util/bytes.h"

namespace p2pdrm::store {
namespace {

using util::Bytes;
using util::bytes_of;

// --- CRC and journal record format ---

TEST(JournalTest, Crc32MatchesReferenceVector) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xcbf43926.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(JournalTest, Crc32MatchesByteWiseLoopAtEveryOffset) {
  // The reference: one byte at a time through the reflected polynomial.
  const auto bytewise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
  };
  Bytes data(308);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 3) * 7 + 1);
  }
  // Every start offset modulo the eight bytes the CRC folds at a time.
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const util::BytesView view(data.data() + start, len);
      const std::uint32_t want = bytewise(view.data(), len);
      ASSERT_EQ(crc32(view), want) << "start " << start << ", length " << len;
      // Continued across a split, as a record's CRC runs over its header
      // and then its payload.
      const std::size_t split = len / 3;
      ASSERT_EQ(crc32(view.subspan(split), crc32(view.first(split))), want)
          << "start " << start << ", length " << len << ", split " << split;
    }
  }
}

TEST(JournalTest, AppendSyncReplayRoundTrips) {
  Journal j;
  EXPECT_EQ(j.append(bytes_of("alpha")), 1u);
  EXPECT_EQ(j.append(bytes_of("beta")), 2u);
  EXPECT_EQ(j.append(bytes_of("")), 3u);  // empty payloads are legal
  EXPECT_EQ(j.unsynced_records(), 3u);
  j.sync();
  EXPECT_EQ(j.unsynced_records(), 0u);

  const Journal::ReplayResult r = Journal::replay(j.durable());
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].seq, 1u);
  EXPECT_EQ(r.records[0].payload, bytes_of("alpha"));
  EXPECT_EQ(r.records[1].payload, bytes_of("beta"));
  EXPECT_TRUE(r.records[2].payload.empty());
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.valid_bytes, j.durable_bytes());
  EXPECT_EQ(r.corrupt_bytes, 0u);
}

TEST(JournalTest, CrashLosesStagedTail) {
  Journal j;
  j.append(bytes_of("durable"));
  j.sync();
  j.append(bytes_of("staged-1"));
  j.append(bytes_of("staged-2"));
  j.crash();  // clean crash: the whole staged tail vanishes

  const Journal::ReplayResult r = j.recover();
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, bytes_of("durable"));
  EXPECT_TRUE(r.clean);
  // Sequence numbering continues after the last surviving record.
  EXPECT_EQ(j.append(bytes_of("after")), 2u);
}

TEST(JournalTest, TornTailStopsAtLastValidRecord) {
  Journal j;
  j.append(bytes_of("one"));
  j.append(bytes_of("two"));
  j.sync();
  j.append(bytes_of("the record that tore in half"));
  const std::size_t torn = j.staged_bytes() / 2;
  j.crash(torn);  // half the staged bytes land on the media anyway

  obs::Registry reg;
  const Journal::ReplayResult r = j.recover(&reg);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[1].payload, bytes_of("two"));
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.corrupt_bytes, torn);
  ASSERT_NE(reg.find_counter("store.replay.corrupt"), nullptr);
  EXPECT_EQ(reg.find_counter("store.replay.corrupt")->value(), 1u);
  EXPECT_EQ(reg.find_counter("store.replay.corrupt_bytes")->value(), torn);

  // recover() truncated the media to the valid prefix: appends continue
  // cleanly and a second replay is clean.
  EXPECT_EQ(j.durable_bytes(), r.valid_bytes);
  EXPECT_EQ(j.append(bytes_of("three")), 3u);
  j.sync();
  const Journal::ReplayResult again = Journal::replay(j.durable());
  EXPECT_TRUE(again.clean);
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2].seq, 3u);
}

TEST(JournalTest, BitFlipInvalidatesRecordAndEverythingAfter) {
  Journal j;
  j.append(bytes_of("first"));
  j.append(bytes_of("second"));
  j.append(bytes_of("third"));
  j.sync();
  Bytes image = j.durable();
  // Flip one payload byte of the second record: its CRC no longer checks
  // out, so replay keeps only the first record (no resynchronization —
  // a WAL trusts nothing past the first bad record).
  image[Journal::kHeaderSize + 5 + Journal::kHeaderSize + 2] ^= 0x01;
  const Journal::ReplayResult r = Journal::replay(image);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, bytes_of("first"));
  EXPECT_FALSE(r.clean);
}

TEST(JournalTest, WipeDestroysMediaButKeepsNumbering) {
  Journal j;
  j.append(bytes_of("gone"));
  j.sync();
  j.wipe();
  EXPECT_EQ(j.durable_bytes(), 0u);
  EXPECT_TRUE(Journal::replay(j.durable()).records.empty());
  EXPECT_EQ(j.append(bytes_of("next")), 2u);  // no seq reuse after a wipe
}

TEST(JournalTest, CompactDropsRecordsButKeepsNumbering) {
  Journal j;
  j.append(bytes_of("a"));
  j.append(bytes_of("b"));
  j.sync();
  j.compact();
  EXPECT_EQ(j.durable_bytes(), 0u);
  EXPECT_EQ(j.append(bytes_of("c")), 3u);
  j.sync();
  const Journal::ReplayResult r = Journal::replay(j.durable());
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].seq, 3u);
}

// --- snapshot format ---

TEST(SnapshotTest, EncodeDecodeRoundTrips) {
  Snapshot snap;
  snap.last_seq = 41;
  snap.state = bytes_of("the whole state machine");
  const Bytes wire = snap.encode();
  const Snapshot back = Snapshot::decode(wire);
  EXPECT_EQ(back.last_seq, 41u);
  EXPECT_EQ(back.state, snap.state);
}

TEST(SnapshotTest, CorruptionRejected) {
  Snapshot snap;
  snap.last_seq = 7;
  snap.state = bytes_of("state");
  const Bytes wire = snap.encode();

  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    Bytes mutated = wire;
    mutated[pos] ^= 0xff;
    EXPECT_FALSE(Snapshot::try_decode(mutated).has_value()) << "pos " << pos;
  }
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(Snapshot::try_decode({wire.data(), len}).has_value());
  }
  EXPECT_THROW(Snapshot::decode({}), util::WireError);
}

TEST(ReplicatedOpTest, RoundTripAndRejects) {
  ReplicatedOp op;
  op.origin = 2001;
  op.origin_seq = 17;
  op.payload = bytes_of("entry");
  const ReplicatedOp back = ReplicatedOp::decode(op.encode());
  EXPECT_EQ(back.origin, op.origin);
  EXPECT_EQ(back.origin_seq, op.origin_seq);
  EXPECT_EQ(back.payload, op.payload);

  ReplicatedOp zero;
  zero.origin_seq = 0;
  EXPECT_FALSE(ReplicatedOp::try_decode(zero.encode()).has_value());
  Bytes trailing = op.encode();
  trailing.push_back(0);
  EXPECT_FALSE(ReplicatedOp::try_decode(trailing).has_value());
}

// --- FarmStore replication protocol ---

// Toy state machine: ordered concatenation of applied payloads, so apply
// order (and nothing else) determines the serialized state.
struct ToyState {
  std::string text;
};

void bind(FarmStore& st, ToyState& state) {
  st.set_state_machine(
      [&state](util::BytesView p) { state.text.append(p.begin(), p.end()); },
      [&state] { return bytes_of(state.text); },
      [&state](util::BytesView s) { state.text.assign(s.begin(), s.end()); });
}

// The ownership pattern FarmStore expects: the owner mutates its in-memory
// state first, then journals the op (submit never calls apply_).
ReplicatedOp submit(FarmStore& st, ToyState& state, const char* payload) {
  state.text += payload;
  return st.submit(bytes_of(payload));
}

TEST(FarmStoreTest, IngestEnforcesPerOriginContiguity) {
  ToyState sa, sb;
  FarmStore a(1), b(2);
  bind(a, sa);
  bind(b, sb);

  const ReplicatedOp op1 = submit(a, sa, "x");
  const ReplicatedOp op2 = submit(a, sa, "y");
  EXPECT_EQ(b.ingest(op2), FarmStore::IngestResult::kGap);  // 2 before 1
  EXPECT_EQ(b.ingest(op1), FarmStore::IngestResult::kApplied);
  EXPECT_EQ(b.ingest(op1), FarmStore::IngestResult::kDuplicate);
  EXPECT_EQ(b.ingest(op2), FarmStore::IngestResult::kApplied);
  EXPECT_EQ(sb.text, "xy");
  EXPECT_EQ(b.watermark(1), 2u);
}

TEST(FarmStoreTest, CrashRecoverReplaysSyncedPrefixOnly) {
  ToyState state;
  FarmStore st(1);
  bind(st, state);
  submit(st, state, "a");
  submit(st, state, "b");
  st.sync();
  submit(st, state, "c");  // staged, never synced
  st.crash();
  EXPECT_TRUE(state.text.empty());  // crash() cleared the owner's state
  state.text.clear();  // the RAM image died with the box

  EXPECT_EQ(st.recover(), 2u);
  EXPECT_EQ(state.text, "ab");
  EXPECT_EQ(st.local_seq(), 2u);
  // The lost op's sequence number is reissued — it never existed.
  EXPECT_EQ(st.submit(bytes_of("c2")).origin_seq, 3u);
}

TEST(FarmStoreTest, TornCrashRecoversCleanPrefix) {
  ToyState state;
  obs::Registry reg;
  FarmStore st(1);
  st.bind_registry(&reg);
  bind(st, state);
  submit(st, state, "kept");
  st.sync();
  submit(st, state, "torn away");
  st.crash(st.journal().staged_bytes() / 2);
  state.text.clear();

  EXPECT_EQ(st.recover(), 1u);
  EXPECT_EQ(state.text, "kept");
  ASSERT_NE(reg.find_counter("store.replay.corrupt"), nullptr);
  EXPECT_EQ(reg.find_counter("store.replay.corrupt")->value(), 1u);
}

TEST(FarmStoreTest, OwnOpsComeHomeViaAntiEntropy) {
  // A ships an op to B, then crashes before fsync: the op survives only on
  // B. A's recovery pulls its own op back and must not reuse its seq.
  ToyState sa, sb;
  FarmStore a(1), b(2);
  bind(a, sa);
  bind(b, sb);

  const ReplicatedOp op1 = submit(a, sa, "p");
  a.sync();
  ASSERT_EQ(b.ingest(op1), FarmStore::IngestResult::kApplied);
  const ReplicatedOp op2 = submit(a, sa, "q");  // staged on A...
  ASSERT_EQ(b.ingest(op2), FarmStore::IngestResult::kApplied);  // ...durable on B
  b.sync();
  a.crash();
  sa.text.clear();

  EXPECT_EQ(a.recover(), 1u);
  EXPECT_EQ(a.local_seq(), 1u);
  EXPECT_EQ(a.catch_up_from(b), 1u);  // op2 comes home
  EXPECT_EQ(sa.text, "pq");
  EXPECT_EQ(a.local_seq(), 2u);
  EXPECT_EQ(a.submit(bytes_of("r")).origin_seq, 3u);  // no seq reuse
}

TEST(FarmStoreTest, SnapshotCompactsJournalAndRecoveryUsesBoth) {
  ToyState state;
  obs::Registry reg;
  FarmStore::Config cfg;
  cfg.snapshot_every = 4;
  FarmStore st(1, cfg);
  st.bind_registry(&reg);
  bind(st, state);
  for (const char* p : {"a", "b", "c", "d", "e", "f"}) submit(st, state, p);
  st.sync();
  // 4 ops folded into the snapshot, 2 still in the journal.
  ASSERT_NE(reg.find_counter("store.snapshots.taken"), nullptr);
  EXPECT_EQ(reg.find_counter("store.snapshots.taken")->value(), 1u);
  EXPECT_FALSE(st.snapshot_bytes().empty());

  st.crash();
  state.text.clear();
  EXPECT_EQ(st.recover(), 2u);  // only the post-snapshot tail replays
  EXPECT_EQ(state.text, "abcdef");
  EXPECT_EQ(st.local_seq(), 6u);
}

TEST(FarmStoreTest, TrimmedCacheForcesFullStateTransfer) {
  // The source compacted past the ops a blank replica needs: incremental
  // anti-entropy hits a gap and the replica adopts the full state instead.
  ToyState ssrc, sdst;
  obs::Registry reg;
  FarmStore::Config cfg;
  cfg.snapshot_every = 2;  // aggressive compaction trims the ops cache
  FarmStore src(1, cfg), dst(2);
  src.bind_registry(&reg);
  dst.bind_registry(&reg);
  bind(src, ssrc);
  bind(dst, sdst);
  for (const char* p : {"a", "b", "c", "d", "e", "f"}) submit(src, ssrc, p);

  EXPECT_GE(dst.catch_up_from(src), 1u);
  EXPECT_EQ(sdst.text, "abcdef");
  EXPECT_EQ(dst.watermark(1), 6u);
  ASSERT_NE(reg.find_counter("store.recovery.full_transfers"), nullptr);
  EXPECT_EQ(reg.find_counter("store.recovery.full_transfers")->value(), 1u);
}

TEST(FarmStoreTest, NoFullTransferWhenBothSidesHoldUniqueOps) {
  // Divergent multi-master histories merge op-by-op; neither side may
  // clobber the other with a full-state adoption.
  ToyState sa, sb;
  FarmStore a(1), b(2);
  bind(a, sa);
  bind(b, sb);
  submit(a, sa, "A1");
  submit(b, sb, "B1");
  submit(b, sb, "B2");

  a.catch_up_from(b);
  b.catch_up_from(a);
  // Watermarks converge even though apply orders differ.
  EXPECT_EQ(a.watermarks(), b.watermarks());
  EXPECT_EQ(a.watermark(1), 1u);
  EXPECT_EQ(a.watermark(2), 2u);
  EXPECT_NE(sa.text.find("A1"), std::string::npos);
  EXPECT_NE(sa.text.find("B1"), std::string::npos);
  EXPECT_NE(sb.text.find("A1"), std::string::npos);
}

TEST(FarmStoreTest, WipedReplicaRebuildsEntirelyFromSibling) {
  ToyState sa, sb;
  FarmStore a(1), b(2);
  bind(a, sa);
  bind(b, sb);
  for (const char* p : {"a", "b", "c"}) {
    const ReplicatedOp op = submit(a, sa, p);
    b.ingest(op);
  }
  a.sync();
  b.sync();
  a.wipe();
  sa.text.clear();
  EXPECT_EQ(a.recover(), 0u);  // nothing local survives a wipe
  EXPECT_EQ(sa.text, "");
  EXPECT_GE(a.catch_up_from(b), 3u);
  EXPECT_EQ(sa.text, "abc");
  EXPECT_EQ(a.local_seq(), 3u);  // own ops restored the issue counter
}

// --- ViewingLog durability: deterministic replay, exact capped aggregates ---

services::ViewingLog::Entry entry(util::UserIN user, util::ChannelId channel,
                                  std::uint32_t ip, util::SimTime time,
                                  bool renewal = false) {
  services::ViewingLog::Entry e;
  e.user_in = user;
  e.channel = channel;
  e.addr.ip = ip;
  e.time = time;
  e.renewal = renewal;
  return e;
}

TEST(ViewingLogDurabilityTest, EncodeDecodeByteIdentical) {
  services::ViewingLog log;
  log.record(entry(1, 10, 0x0a000001, 100));
  log.record(entry(2, 10, 0x0a000002, 200));
  log.record(entry(1, 10, 0x0a000001, 300, /*renewal=*/true));
  log.record(entry(1, 11, 0x0a000003, 400));
  const Bytes first = log.encode();
  const Bytes second = services::ViewingLog::decode(first).encode();
  EXPECT_EQ(first, second);
}

TEST(ViewingLogDurabilityTest, JournalReplayYieldsByteIdenticalLog) {
  // The golden determinism property the recovery path rests on: a replica
  // rebuilt by snapshot + journal replay encodes to the same bytes as the
  // log that never crashed.
  services::ViewingLog live;
  services::ViewingLog replica;
  FarmStore st(2001);
  st.set_state_machine(
      [&replica](util::BytesView p) {
        replica.record(services::decode_viewing_entry(p));
      },
      [&replica] { return replica.encode(); },
      [&replica](util::BytesView s) {
        replica = s.empty() ? services::ViewingLog()
                            : services::ViewingLog::decode(s);
      });

  for (int i = 0; i < 20; ++i) {
    const services::ViewingLog::Entry e =
        entry(static_cast<util::UserIN>(1 + i % 3),
              static_cast<util::ChannelId>(10 + i % 2),
              0x0a000000u + static_cast<std::uint32_t>(i), 100 * (i + 1),
              /*renewal=*/i % 4 == 3);
    live.record(e);
    replica.record(e);
    st.submit(services::encode_viewing_entry(e));
  }
  st.sync();
  st.crash();
  replica = services::ViewingLog();  // RAM image gone

  EXPECT_EQ(st.recover(), 20u);
  EXPECT_EQ(replica.encode(), live.encode());
  EXPECT_EQ(replica.size(), live.size());
  ASSERT_NE(replica.latest(1, 10), nullptr);
  EXPECT_EQ(replica.latest(1, 10)->addr, live.latest(1, 10)->addr);
}

TEST(ViewingLogDurabilityTest, AuditCapKeepsAggregatesExact) {
  services::ViewingLog log;
  log.set_audit_cap(8);
  // 30 fresh views over 6 live (user, channel) pairs plus 10 renewals: far
  // past the cap, but the protected live-latest entries still fit under it
  // (the cap never evicts an entry the renewal index points at).
  for (int i = 0; i < 30; ++i) {
    log.record(entry(static_cast<util::UserIN>(1 + i % 3),
                     static_cast<util::ChannelId>(i % 2 == 0 ? 10 : 11),
                     0x0a000000u + static_cast<std::uint32_t>(i), 50 * (i + 1)));
    if (i % 3 == 0) {
      log.record(entry(static_cast<util::UserIN>(1 + i % 3),
                       static_cast<util::ChannelId>(i % 2 == 0 ? 10 : 11),
                       0x0a000000u + static_cast<std::uint32_t>(i),
                       50 * (i + 1) + 1, /*renewal=*/true));
    }
  }
  EXPECT_EQ(log.size(), 40u);  // total ever recorded, rotation included
  EXPECT_LE(log.audit_trail().size(), 8u);
  EXPECT_GT(log.rotated_count(), 0u);
  // Per-channel fresh-view counts stay exact via the retained aggregates.
  const std::map<util::ChannelId, std::size_t> views = log.views_per_channel();
  EXPECT_EQ(views.at(10), 15u);
  EXPECT_EQ(views.at(11), 15u);
  // The renewal index never rotates out: every live (user, channel) pair
  // still resolves.
  for (util::UserIN u = 1; u <= 3; ++u) {
    EXPECT_NE(log.latest(u, 10), nullptr);
    EXPECT_NE(log.latest(u, 11), nullptr);
  }
}

TEST(ViewingLogDurabilityTest, CapSurvivesEncodeDecodeWithExactCounts) {
  services::ViewingLog log;
  log.set_audit_cap(4);
  for (int i = 0; i < 12; ++i) {
    log.record(entry(1, 10, 0x0a000001, 10 * (i + 1)));
  }
  const std::map<util::ChannelId, std::size_t> before = log.views_per_channel();
  services::ViewingLog back = services::ViewingLog::decode(log.encode());
  // The durable form carries the rotated aggregates; the cap itself is
  // deployment config and is re-applied by the owner.
  back.set_audit_cap(4);
  EXPECT_EQ(back.views_per_channel(), before);
  EXPECT_EQ(back.size(), log.size());
}

}  // namespace
}  // namespace p2pdrm::store
