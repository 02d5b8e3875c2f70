#include "store/journal.h"

#include <array>
#include <cstring>

namespace p2pdrm::store {
namespace {

// Slicing-by-8 tables: t[0] is the byte-wise table, and t[k][b] advances
// the CRC register over byte b and then k zero bytes, so eight bytes fold
// into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

void append_le32(util::Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_le64(util::Bytes& out, std::uint64_t v) {
  append_le32(out, static_cast<std::uint32_t>(v));
  append_le32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_le32(p)) |
         static_cast<std::uint64_t>(read_le32(p + 4)) << 32;
}

}  // namespace

std::uint32_t crc32(util::BytesView data, std::uint32_t crc) {
  static const CrcTables t = make_crc_tables();
  crc = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ read_le32(p);
    const std::uint32_t hi = read_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

namespace {

// Record CRC covers seq | len | payload, not just the payload: a bit flip
// in the sequence field would otherwise decode cleanly and silently shift
// replication watermarks.
std::uint32_t record_crc(std::uint64_t seq, util::BytesView payload) {
  std::uint8_t header[12];
  util::store_le32(header, static_cast<std::uint32_t>(seq));
  util::store_le32(header + 4, static_cast<std::uint32_t>(seq >> 32));
  util::store_le32(header + 8, static_cast<std::uint32_t>(payload.size()));
  return crc32(payload, crc32(util::BytesView(header, sizeof(header))));
}

}  // namespace

std::uint64_t Journal::append(util::BytesView payload) {
  const std::uint64_t seq = next_seq_++;
  append_le32(staged_, kRecordMagic);
  append_le64(staged_, seq);
  append_le32(staged_, static_cast<std::uint32_t>(payload.size()));
  append_le32(staged_, record_crc(seq, payload));
  staged_.insert(staged_.end(), payload.begin(), payload.end());
  ++staged_records_;
  return seq;
}

void Journal::sync() {
  durable_.insert(durable_.end(), staged_.begin(), staged_.end());
  staged_.clear();
  staged_records_ = 0;
  synced_next_seq_ = next_seq_;
}

void Journal::crash(std::size_t torn_bytes) {
  if (torn_bytes > staged_.size()) torn_bytes = staged_.size();
  durable_.insert(durable_.end(), staged_.begin(),
                  staged_.begin() + static_cast<std::ptrdiff_t>(torn_bytes));
  staged_.clear();
  staged_records_ = 0;
  // next_seq_ rolls back to what the media can actually prove; recover()
  // re-derives it from the surviving records.
  next_seq_ = synced_next_seq_;
}

void Journal::wipe() {
  durable_.clear();
  staged_.clear();
  staged_records_ = 0;
  synced_next_seq_ = next_seq_;
}

void Journal::compact() {
  durable_.clear();
  staged_.clear();
  staged_records_ = 0;
  synced_next_seq_ = next_seq_;
}

Journal::ReplayResult Journal::replay(util::BytesView image,
                                      obs::Registry* registry) {
  ReplayResult result;
  std::size_t pos = 0;
  while (pos < image.size()) {
    if (image.size() - pos < kHeaderSize) break;
    const std::uint8_t* p = image.data() + pos;
    if (read_le32(p) != kRecordMagic) break;
    const std::uint64_t seq = read_le64(p + 4);
    const std::uint32_t len = read_le32(p + 12);
    const std::uint32_t crc = read_le32(p + 16);
    if (image.size() - pos - kHeaderSize < len) break;
    util::BytesView payload = image.subspan(pos + kHeaderSize, len);
    if (record_crc(seq, payload) != crc) break;
    Record rec;
    rec.seq = seq;
    rec.payload.assign(payload.begin(), payload.end());
    result.records.push_back(std::move(rec));
    pos += kHeaderSize + len;
  }
  result.valid_bytes = pos;
  result.corrupt_bytes = image.size() - pos;
  result.clean = result.corrupt_bytes == 0;
  if (!result.clean && registry != nullptr) {
    registry->counter("store.replay.corrupt").inc();
    registry->counter("store.replay.corrupt_bytes").inc(result.corrupt_bytes);
  }
  return result;
}

Journal::ReplayResult Journal::recover(obs::Registry* registry) {
  ReplayResult result = replay(durable_, registry);
  durable_.resize(result.valid_bytes);
  staged_.clear();
  staged_records_ = 0;
  next_seq_ = result.records.empty() ? next_seq_ : result.records.back().seq + 1;
  if (next_seq_ < 1) next_seq_ = 1;
  synced_next_seq_ = next_seq_;
  return result;
}

}  // namespace p2pdrm::store
