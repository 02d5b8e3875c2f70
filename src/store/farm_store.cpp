#include "store/farm_store.h"

#include <utility>

namespace p2pdrm::store {

ReplicatedOp ReplicatedOp::decode(util::BytesView data) {
  const ReplicatedOp op = util::decode_fields<ReplicatedOp>(data);
  if (op.origin_seq == 0) throw util::WireError("replicated op: zero seq");
  return op;
}

std::optional<ReplicatedOp> ReplicatedOp::try_decode(util::BytesView data) {
  try {
    return decode(data);
  } catch (const util::WireError&) {
    return std::nullopt;
  }
}

FarmStore::FarmStore(std::uint32_t origin_id, Config config)
    : origin_id_(origin_id), config_(config) {}

void FarmStore::set_state_machine(ApplyFn apply, SnapshotFn snapshot,
                                  RestoreFn restore) {
  apply_ = std::move(apply);
  snapshot_ = std::move(snapshot);
  restore_ = std::move(restore);
}

ReplicatedOp FarmStore::submit(util::BytesView payload) {
  ReplicatedOp op;
  op.origin = origin_id_;
  op.origin_seq = ++local_seq_;
  op.payload.assign(payload.begin(), payload.end());
  applied_[origin_id_] = local_seq_;
  journal_op(op);
  return op;
}

void FarmStore::sync() { journal_.sync(); }

FarmStore::IngestResult FarmStore::ingest(const ReplicatedOp& op) {
  const std::uint64_t wm = watermark(op.origin);
  if (op.origin_seq <= wm) return IngestResult::kDuplicate;
  if (op.origin_seq != wm + 1) return IngestResult::kGap;
  apply_(op.payload);
  applied_[op.origin] = op.origin_seq;
  if (op.origin == origin_id_ && op.origin_seq > local_seq_) {
    // One of our own ops coming home via a sibling (we crashed after
    // shipping it but before syncing) — advance the issue counter so we
    // never reuse its sequence number.
    local_seq_ = op.origin_seq;
  }
  journal_op(op);
  return IngestResult::kApplied;
}

std::vector<ReplicatedOp> FarmStore::ops_since(
    const std::map<std::uint32_t, std::uint64_t>& peer_watermarks) const {
  std::vector<ReplicatedOp> out;
  for (const ReplicatedOp& op : ops_cache_) {
    const auto it = peer_watermarks.find(op.origin);
    const std::uint64_t wm = it == peer_watermarks.end() ? 0 : it->second;
    if (op.origin_seq > wm) out.push_back(op);
  }
  return out;
}

std::size_t FarmStore::catch_up_from(const FarmStore& src) {
  std::size_t pulled = 0;
  // Incremental path: replay src's cached ops past our watermarks, in the
  // order src journaled them (per-origin contiguous by construction).
  for (const ReplicatedOp& op : src.ops_since(applied_)) {
    if (ingest(op) == IngestResult::kApplied) ++pulled;
  }
  // Anything still missing means src compacted the ops past our watermark
  // into a snapshot. Adopt its full state — but only when that cannot lose
  // an op we hold and src lacks (src at-or-ahead of us on every origin).
  bool behind = false;
  for (const auto& [origin, wm] : src.applied_) {
    if (wm > watermark(origin)) behind = true;
  }
  bool ahead = false;
  for (const auto& [origin, wm] : applied_) {
    if (wm > src.watermark(origin)) ahead = true;
  }
  if (behind && !ahead) {
    unwrap_state(src.wrap_state());
    ops_cache_ = src.ops_cache_;
    take_snapshot();
    if (registry_ != nullptr) {
      registry_->counter("store.recovery.full_transfers").inc();
    }
    ++pulled;
  }
  if (registry_ != nullptr && pulled > 0) {
    registry_->counter("store.recovery.antientropy_ops").inc(pulled);
  }
  return pulled;
}

void FarmStore::crash(std::size_t torn_bytes) {
  journal_.crash(torn_bytes);
  if (restore_) restore_({});  // the owner's RAM image died with the box
}

void FarmStore::wipe() {
  journal_.wipe();
  snapshot_bytes_.clear();
  snapshot_last_seq_ = 0;
}

std::size_t FarmStore::recover() {
  applied_.clear();
  local_seq_ = 0;
  ops_cache_.clear();
  journaled_since_snapshot_ = 0;

  if (!snapshot_bytes_.empty()) {
    if (const std::optional<Snapshot> snap = Snapshot::try_decode(snapshot_bytes_)) {
      unwrap_state(snap->state);
      snapshot_last_seq_ = snap->last_seq;
    } else {
      // Corrupt snapshot: start empty and lean on journal + anti-entropy.
      if (registry_ != nullptr) registry_->counter("store.replay.corrupt").inc();
      snapshot_bytes_.clear();
      snapshot_last_seq_ = 0;
      restore_({});
    }
  } else {
    snapshot_last_seq_ = 0;
    restore_({});
  }

  const Journal::ReplayResult rr = journal_.recover(registry_);
  std::size_t applied_count = 0;
  for (const Journal::Record& rec : rr.records) {
    if (rec.seq <= snapshot_last_seq_) continue;  // folded into the snapshot
    const std::optional<ReplicatedOp> op = ReplicatedOp::try_decode(rec.payload);
    if (!op) {
      if (registry_ != nullptr) registry_->counter("store.replay.corrupt").inc();
      continue;
    }
    if (op->origin_seq <= watermark(op->origin)) continue;
    apply_(op->payload);
    applied_[op->origin] = op->origin_seq;
    ops_cache_.push_back(*op);
    ++applied_count;
    ++journaled_since_snapshot_;
  }
  local_seq_ = watermark(origin_id_);
  if (registry_ != nullptr && applied_count > 0) {
    registry_->counter("store.recovery.replayed").inc(applied_count);
  }
  return applied_count;
}

void FarmStore::take_snapshot() {
  journal_.sync();
  Snapshot snap;
  snap.last_seq = journal_.next_seq() - 1;
  snap.state = wrap_state();
  snapshot_bytes_ = snap.encode();
  snapshot_last_seq_ = snap.last_seq;
  journal_.compact();
  journaled_since_snapshot_ = 0;
  const std::size_t keep =
      config_.snapshot_every > 0 ? config_.snapshot_every : 256;
  if (ops_cache_.size() > keep) {
    ops_cache_.erase(ops_cache_.begin(),
                     ops_cache_.end() - static_cast<std::ptrdiff_t>(keep));
  }
  if (registry_ != nullptr) registry_->counter("store.snapshots.taken").inc();
}

std::uint64_t FarmStore::watermark(std::uint32_t origin) const {
  const auto it = applied_.find(origin);
  return it == applied_.end() ? 0 : it->second;
}

void FarmStore::journal_op(const ReplicatedOp& op) {
  journal_.append(op.encode());
  ops_cache_.push_back(op);
  ++journaled_since_snapshot_;
  maybe_snapshot();
}

void FarmStore::maybe_snapshot() {
  if (config_.snapshot_every > 0 &&
      journaled_since_snapshot_ >= config_.snapshot_every) {
    take_snapshot();
  }
}

util::Bytes FarmStore::wrap_state() const {
  util::WireWriter w;
  w.u32(static_cast<std::uint32_t>(applied_.size()));
  for (const auto& [origin, wm] : applied_) {
    w.u32(origin);
    w.u64(wm);
  }
  w.raw(snapshot_());
  return w.take();
}

void FarmStore::unwrap_state(util::BytesView wrapped) {
  if (wrapped.empty()) {
    applied_.clear();
    local_seq_ = 0;
    restore_({});
    return;
  }
  util::WireReader r(wrapped);
  const std::uint32_t n = r.u32();
  std::map<std::uint32_t, std::uint64_t> marks;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t origin = r.u32();
    marks[origin] = r.u64();
  }
  applied_ = std::move(marks);
  restore_(r.raw(r.remaining()));
  local_seq_ = watermark(origin_id_);
}

}  // namespace p2pdrm::store
