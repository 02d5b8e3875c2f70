// Byte-buffer helpers shared by every module: hex codecs, constant-time
// comparison, and small conversions between integers and byte strings.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace p2pdrm::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Encode a byte span as lowercase hex.
std::string to_hex(BytesView data);

/// Decode a hex string (upper or lower case). Throws std::invalid_argument on
/// malformed input (odd length or non-hex characters).
Bytes from_hex(std::string_view hex);

/// Byte-wise equality that does not short-circuit on the first mismatch.
/// Used for comparing MACs, checksums, and nonces so that the comparison time
/// does not leak the position of the first differing byte.
bool constant_time_equal(BytesView a, BytesView b);

/// Copy a std::string's bytes into a Bytes buffer.
Bytes bytes_of(std::string_view s);

/// Interpret a Bytes buffer as a std::string (no validation).
std::string string_of(BytesView b);

/// Concatenate buffers.
Bytes concat(BytesView a, BytesView b);

/// XOR b into a (in place); the spans must be the same length.
void xor_into(std::span<std::uint8_t> a, BytesView b);

namespace detail {
// Between host order and the named byte order (an involution).
inline std::uint32_t to_be(std::uint32_t v) {
  return std::endian::native == std::endian::big ? v : __builtin_bswap32(v);
}
inline std::uint64_t to_be(std::uint64_t v) {
  return std::endian::native == std::endian::big ? v : __builtin_bswap64(v);
}
inline std::uint32_t to_le(std::uint32_t v) {
  return std::endian::native == std::endian::little ? v : __builtin_bswap32(v);
}
}  // namespace detail

/// Big- and little-endian store/load of fixed-width integers. The crypto
/// cores call them on every word, so they are inline: one unaligned move
/// plus a byte swap where the host order differs.
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  v = detail::to_be(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  v = detail::to_be(v);
  std::memcpy(p, &v, sizeof v);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return detail::to_be(v);
}
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return detail::to_be(v);
}
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  v = detail::to_le(v);
  std::memcpy(p, &v, sizeof v);
}
inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return detail::to_le(v);
}

}  // namespace p2pdrm::util
