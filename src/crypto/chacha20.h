// ChaCha20 (RFC 8439 block function) and a DRBG built on it. The DRBG is the
// single source of randomness for the whole system — nonces, keys, RSA prime
// candidates, simulator randomness — so a run seeded with a fixed value is
// reproducible bit-for-bit.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace p2pdrm::crypto {

constexpr std::size_t kChaChaKeySize = 32;
constexpr std::size_t kChaChaNonceSize = 12;
constexpr std::size_t kChaChaBlockSize = 64;

using ChaChaKey = std::array<std::uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<std::uint8_t, kChaChaNonceSize>;

namespace detail {

/// Blocks per run of the ChaCha20 core, and so per DRBG refill (1 KiB).
constexpr std::size_t kChaChaLanes = 16;

/// The ChaCha20 core: kChaChaLanes consecutive keystream blocks. Lane j is
/// the block at counter + j; a lane past the 2^32 counter wrap runs with
/// the nonce incremented (as a 96-bit little-endian integer), which is
/// where the DRBG rolls its nonce. Lane j's block goes to
/// out[64 j, 64 j + 64). Runs the widest kernel the CPU has, picked once
/// per process.
void chacha20_blocks(const ChaChaKey& key, const ChaChaNonce& nonce,
                     std::uint32_t counter,
                     std::uint8_t out[kChaChaLanes * kChaChaBlockSize]);

/// The kernels behind it: one template of the round function, run over
/// vectors of 4, 8 or 16 blocks until all kChaChaLanes are done. Every
/// kernel writes the same bytes as chacha20_blocks.
using ChaChaKernel = void (*)(const ChaChaKey& key, const ChaChaNonce& nonce,
                              std::uint32_t counter, std::uint8_t* out);
/// Four blocks at a time (16-byte vectors, SSE2 on x86-64).
void chacha20_blocks_portable(const ChaChaKey& key, const ChaChaNonce& nonce,
                              std::uint32_t counter, std::uint8_t* out);
#if defined(__x86_64__)
bool cpu_has_avx2();
/// Eight blocks at a time. Requires cpu_has_avx2().
void chacha20_blocks_avx2(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::uint8_t* out);
bool cpu_has_avx512f();
/// Sixteen blocks at a time. Requires cpu_has_avx512f().
void chacha20_blocks_avx512(const ChaChaKey& key, const ChaChaNonce& nonce,
                            std::uint32_t counter, std::uint8_t* out);
#endif

}  // namespace detail

/// Compute one 64-byte ChaCha20 keystream block (the same round function on
/// one block, without vectors).
void chacha20_block(const ChaChaKey& key, const ChaChaNonce& nonce,
                    std::uint32_t counter, std::uint8_t out[kChaChaBlockSize]);

/// Deterministic random bit generator running ChaCha20 in counter mode.
/// Also exposes the convenience integer/real draws the simulator and
/// workload generator need.
class SecureRandom {
 public:
  /// Seed from a 64-bit value (expanded through SHA-256).
  explicit SecureRandom(std::uint64_t seed);
  /// Seed from arbitrary bytes.
  explicit SecureRandom(util::BytesView seed);

  void fill(std::span<std::uint8_t> out);
  util::Bytes bytes(std::size_t n);

  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Uniform in [0, bound) with rejection sampling (bound must be > 0).
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);
  /// Uniform real in [0, 1).
  double uniform_real();
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);
  /// Standard normal via Box-Muller.
  double normal();
  double normal(double mean, double stddev);
  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Bernoulli trial.
  bool chance(double p);

  /// Split off an independent child generator (for per-node streams).
  SecureRandom fork();

 private:
  static constexpr std::size_t kBufferSize =
      detail::kChaChaLanes * kChaChaBlockSize;

  /// Compute the next kChaChaLanes blocks of the stream into buffer_.
  void refill();

  ChaChaKey key_{};
  ChaChaNonce nonce_{};
  std::uint32_t counter_ = 0;  // first block of the next refill
  std::array<std::uint8_t, kBufferSize> buffer_{};
  std::size_t buffer_pos_ = kBufferSize;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace p2pdrm::crypto
