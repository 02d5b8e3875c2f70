// SHA-256 (FIPS 180-4), implemented from scratch. Used for ticket digests,
// RSA signature padding, password hashing (the paper's "secure hash of the
// user's password"), and the attestation checksum. The compression function
// has two kernels, picked once per process: the x86 SHA extensions on CPUs
// that have them, else portable code.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace p2pdrm::crypto {

constexpr std::size_t kSha256DigestSize = 32;
constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks into the eight state
/// words (a..h). Both kernels give the same state for the same input.
using Sha256Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);
#if defined(__x86_64__)
/// The CPU has the SHA extensions (and SSE4.1, which any CPU with them has).
bool cpu_has_sha();
/// sha256rnds2/sha256msg1/sha256msg2. Requires cpu_has_sha().
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(std::uint32_t* state,
                                                                  const std::uint8_t* data,
                                                                  std::size_t blocks);
#endif

}  // namespace detail

/// Incremental SHA-256. Typical use:
///   Sha256 h; h.update(a); h.update(b); auto d = h.finish();
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(util::BytesView data);
  /// Finalizes and returns the digest. The object must be reset() before
  /// being reused.
  Sha256Digest finish();

 private:
  void compress(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Sha256Digest sha256(util::BytesView data);

/// Digest as a Bytes buffer (for wire structures that carry digests).
util::Bytes sha256_bytes(util::BytesView data);

}  // namespace p2pdrm::crypto
