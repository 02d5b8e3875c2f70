#include "util/wire.h"

namespace p2pdrm::util {

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::bytes(BytesView v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void WireWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireWriter::raw(BytesView v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw WireError("wire: truncated input (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(remaining()) + ")");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Bytes WireReader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

BytesView WireReader::bytes_view() {
  const std::uint32_t n = u32();
  need(n);
  const BytesView v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

void WireReader::copy_to(std::uint8_t* out, std::size_t n) {
  need(n);
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
}

std::uint32_t WireReader::count(std::uint32_t max_count, std::size_t min_item_bytes) {
  const std::uint32_t n = u32();
  if (n > max_count || (min_item_bytes > 0 && n > remaining() / min_item_bytes)) {
    throw WireError("wire: implausible count " + std::to_string(n));
  }
  return n;
}

std::uint8_t WireReader::code(std::uint8_t first, std::uint8_t last) {
  const std::uint8_t v = u8();
  if (v < first || v > last) throw WireError("wire: bad code " + std::to_string(v));
  return v;
}

Bytes WireReader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace p2pdrm::util
