#include "util/bytes.h"

#include <stdexcept>

namespace p2pdrm::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool constant_time_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string string_of(BytesView b) {
  return std::string(b.begin(), b.end());
}

Bytes concat(BytesView a, BytesView b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

void xor_into(std::span<std::uint8_t> a, BytesView b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("xor_into: length mismatch");
  }
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

}  // namespace p2pdrm::util
