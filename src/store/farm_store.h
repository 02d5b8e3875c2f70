// Per-instance durable replica for a manager farm (§V): each farm box owns
// a journal + snapshot pair plus a gossip-replication log, so the farm's
// logical state (ViewingLog, user directory) survives any single crash.
//
// Replication model: multi-master with per-origin sequence numbers. Every
// locally-submitted op is journaled as ReplicatedOp{origin=me, origin_seq}
// and asynchronously shipped to sibling instances, which apply it if it is
// the next contiguous op from that origin (watermark check) and journal it
// themselves. On restart an instance recovers snapshot + journal replay,
// then runs anti-entropy (catch_up_from) against surviving siblings to pull
// ops it lost with its unsynced tail — including its *own* ops that a
// sibling already durably holds, which also restores the local sequence
// counter past everything the farm has seen from us (no seq reuse).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "obs/registry.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "util/bytes.h"
#include "util/wire.h"

namespace p2pdrm::store {

/// One replicated state-machine operation, as journaled and as shipped
/// between farm instances.
struct ReplicatedOp {
  std::uint32_t origin = 0;
  std::uint64_t origin_seq = 0;
  util::Bytes payload;

  template <class Io>
  void fields(Io& io) {
    io(origin, origin_seq, payload);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  /// Throws WireError on malformed input, trailing bytes or a zero seq.
  static ReplicatedOp decode(util::BytesView data);
  static std::optional<ReplicatedOp> try_decode(util::BytesView data);
};

class FarmStore {
 public:
  struct Config {
    /// Take a snapshot (and compact the journal) every N journaled ops.
    /// 0 disables automatic snapshots.
    std::uint64_t snapshot_every = 256;
  };

  enum class IngestResult : std::uint8_t { kApplied, kDuplicate, kGap };

  using ApplyFn = std::function<void(util::BytesView payload)>;
  using SnapshotFn = std::function<util::Bytes()>;
  using RestoreFn = std::function<void(util::BytesView state)>;

  explicit FarmStore(std::uint32_t origin_id) : FarmStore(origin_id, Config()) {}
  FarmStore(std::uint32_t origin_id, Config config);

  /// Metrics sink for replay/recovery counters (optional).
  void bind_registry(obs::Registry* registry) { registry_ = registry; }

  /// The owner's state machine: apply one op payload, serialize full state,
  /// restore full state. Must be set before recover()/ingest().
  void set_state_machine(ApplyFn apply, SnapshotFn snapshot, RestoreFn restore);

  std::uint32_t origin_id() const { return origin_id_; }

  /// Journal a locally-applied op (the owner has already mutated its
  /// in-memory state). Returns the op as it should be shipped to siblings.
  ReplicatedOp submit(util::BytesView payload);

  /// fsync the journal tail.
  void sync();

  /// Apply an op received from a sibling: applied when it is the next
  /// contiguous op from its origin, duplicate when already seen, gap when
  /// out of order (caller falls back to catch_up_from).
  IngestResult ingest(const ReplicatedOp& op);

  /// Ops this store holds with origin_seq > the peer's watermark for each
  /// origin; used to serve anti-entropy.
  std::vector<ReplicatedOp> ops_since(
      const std::map<std::uint32_t, std::uint64_t>& peer_watermarks) const;

  /// Anti-entropy: pull everything `src` has that we lack. Falls back to a
  /// full state transfer when src has compacted past our watermarks.
  /// Returns the number of ops (or full-state=1) pulled.
  std::size_t catch_up_from(const FarmStore& src);

  /// Crash the box: unsynced journal tail is lost (optionally leaving
  /// `torn_bytes` of it as a torn write), and the owner's in-memory state
  /// is cleared through its restore function with empty state.
  void crash(std::size_t torn_bytes = 0);

  /// Destroy snapshot + journal media entirely (wipe-state fault).
  void wipe();

  /// Restore from snapshot + journal replay. Returns the number of ops
  /// replayed from the journal. The owner's restore/apply fns rebuild the
  /// in-memory state. Never throws: corrupt snapshot ⇒ empty state, corrupt
  /// journal tail ⇒ stops at last valid record.
  std::size_t recover();

  /// Snapshot current owner state and compact the journal.
  void take_snapshot();

  /// Highest contiguous origin_seq seen per origin (including self).
  const std::map<std::uint32_t, std::uint64_t>& watermarks() const {
    return applied_;
  }
  std::uint64_t watermark(std::uint32_t origin) const;

  std::uint64_t unsynced_ops() const { return journal_.unsynced_records(); }
  std::uint64_t local_seq() const { return local_seq_; }
  const Journal& journal() const { return journal_; }
  const util::Bytes& snapshot_bytes() const { return snapshot_bytes_; }

 private:
  void journal_op(const ReplicatedOp& op);
  void maybe_snapshot();
  util::Bytes wrap_state() const;
  void unwrap_state(util::BytesView wrapped);

  std::uint32_t origin_id_;
  Config config_;
  obs::Registry* registry_ = nullptr;
  ApplyFn apply_;
  SnapshotFn snapshot_;
  RestoreFn restore_;

  Journal journal_;
  util::Bytes snapshot_bytes_;  // encoded Snapshot, empty = none
  std::uint64_t snapshot_last_seq_ = 0;
  std::uint64_t journaled_since_snapshot_ = 0;

  std::uint64_t local_seq_ = 0;  // last origin_seq this instance issued
  std::map<std::uint32_t, std::uint64_t> applied_;  // origin → watermark

  /// Recently journaled ops kept in memory to serve anti-entropy without
  /// re-parsing the journal; trimmed at snapshot time.
  std::vector<ReplicatedOp> ops_cache_;
};

}  // namespace p2pdrm::store
