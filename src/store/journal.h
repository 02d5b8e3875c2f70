// Append-only write-ahead journal with checksummed, torn-write-tolerant
// records — the durable half of a farm instance's state (§V: the paper's
// farm presents one logical manager; this is what one box actually holds).
//
// The journal models a single file on a single disk. Appends land in a
// *staged* tail that a crash loses (the OS page cache); sync() moves the
// tail into the durable image (fsync). A crash may additionally leave a
// torn prefix of the staged tail on the media — replay tolerates that by
// stopping at the first record whose magic, length, or CRC does not check
// out, exactly like a real WAL recovery.
//
// Record layout (all little-endian):
//   magic u32 ("JRN1") | seq u64 | len u32 | crc u32 | payload
// where crc = crc32(seq | len | payload): the header fields are covered
// too, so a bit flip in the sequence number is a torn record, not a
// silently shifted watermark.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/registry.h"
#include "util/bytes.h"

namespace p2pdrm::store {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`, continuing from
/// `crc`, the CRC of the bytes before it: crc32(b, crc32(a)) is the CRC of
/// a followed by b.
std::uint32_t crc32(util::BytesView data, std::uint32_t crc = 0);

class Journal {
 public:
  static constexpr std::uint32_t kRecordMagic = 0x314e524au;  // "JRN1"
  static constexpr std::size_t kHeaderSize = 4 + 8 + 4 + 4;

  struct Record {
    std::uint64_t seq = 0;
    util::Bytes payload;
  };

  /// Outcome of walking a journal image record by record. Replay never
  /// throws: a corrupt or torn tail simply ends the walk, and everything
  /// before it is intact (a record is either wholly valid or not counted).
  struct ReplayResult {
    std::vector<Record> records;
    std::size_t valid_bytes = 0;    // length of the valid prefix
    std::size_t corrupt_bytes = 0;  // bytes abandoned past the valid prefix
    bool clean = true;              // false when a corrupt tail was hit
  };

  /// Append one record to the staged (unsynced) tail. Returns its sequence
  /// number. Sequence numbers are contiguous from 1.
  std::uint64_t append(util::BytesView payload);

  /// Make every staged record durable (fsync).
  void sync();

  /// Crash the box: the staged tail is lost. When `torn_bytes` > 0, that
  /// many bytes of the staged tail (capped at its length) land on the media
  /// anyway as a torn partial write — replay must reject them.
  void crash(std::size_t torn_bytes = 0);

  /// Destroy the media entirely (durable and staged) without resetting the
  /// sequence counter — wipe-state faults use this; recovery then has
  /// nothing to replay.
  void wipe();

  /// Drop all records (durable and staged) after a snapshot made them
  /// redundant. Sequence numbering continues (a snapshot records the last
  /// sequence it covers).
  void compact();

  /// Walk `image` and return every valid record, stopping at the first
  /// torn/corrupt one. Counts "store.replay.corrupt" (corrupt tails hit)
  /// and "store.replay.corrupt_bytes" in `registry` when given.
  static ReplayResult replay(util::BytesView image,
                             obs::Registry* registry = nullptr);

  /// Replay the durable image after a crash: truncates the media to the
  /// valid prefix (discarding a torn tail) and aligns the sequence counter
  /// so new appends continue after the last durable record.
  ReplayResult recover(obs::Registry* registry = nullptr);

  const util::Bytes& durable() const { return durable_; }
  std::size_t durable_bytes() const { return durable_.size(); }
  std::size_t staged_bytes() const { return staged_.size(); }
  std::uint64_t unsynced_records() const { return staged_records_; }
  /// Sequence number the next append will get.
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  util::Bytes durable_;
  util::Bytes staged_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t synced_next_seq_ = 1;  // next_seq_ as of the last sync()
  std::uint64_t staged_records_ = 0;
};

}  // namespace p2pdrm::store
