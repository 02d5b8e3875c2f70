// AES-128 (FIPS 197) block cipher plus CTR mode, implemented from scratch.
// This is the paper's "light-weight rotating symmetric key encryption": the
// Channel Server encrypts the live stream with an AES-128 content key that
// rotates every minute, and per-link session keys wrap the content keys in
// transit.
//
// CTR mode has two kernels, chosen once at run time: an AES-NI kernel that
// keeps four counter blocks in flight (x86-64 CPUs with the AES instructions;
// constant-time), and a portable byte-wise S-box kernel (every other CPU, and
// the reference the tests compare against). The portable kernel's table
// lookups are not hardened against cache timing — fine for a reproduction.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace p2pdrm::crypto {

constexpr std::size_t kAesBlockSize = 16;
constexpr std::size_t kAesKeySize = 16;

using AesKey = std::array<std::uint8_t, kAesKeySize>;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

namespace detail {

/// The expanded key: 11 round keys of 16 bytes in FIPS-197 byte order.
using RoundKeys = std::array<std::uint8_t, 11 * kAesBlockSize>;

/// CTR kernels. XOR the keystream into `data`, starting `in_block` bytes
/// into the counter block nonce(8 bytes, big-endian) || block (big-endian);
/// the block index wraps modulo 2^64. AesCtr::crypt is the production caller.
using CtrKernel = void (*)(const RoundKeys& rk, std::uint64_t nonce, std::uint64_t block,
                           std::size_t in_block, std::span<std::uint8_t> data);
void ctr_portable(const RoundKeys& rk, std::uint64_t nonce, std::uint64_t block,
                  std::size_t in_block, std::span<std::uint8_t> data);
#if defined(__x86_64__)
bool cpu_has_aesni();
/// Requires cpu_has_aesni().
void ctr_aesni(const RoundKeys& rk, std::uint64_t nonce, std::uint64_t block,
               std::size_t in_block, std::span<std::uint8_t> data);
#endif

}  // namespace detail

/// AES-128 with a precomputed key schedule (portable code).
class Aes128 {
 public:
  explicit Aes128(const AesKey& key);

  /// Encrypt one 16-byte block (out may alias in).
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  const detail::RoundKeys& round_keys() const { return round_keys_; }

 private:
  detail::RoundKeys round_keys_;
};

/// AES-128-CTR keystream cipher. Encryption and decryption are the same
/// operation. The counter block is nonce(8 bytes) || big-endian block index,
/// so a (key, nonce) pair must not be reused for different plaintexts —
/// content keys rotate and each carries a fresh nonce.
class AesCtr {
 public:
  AesCtr(const AesKey& key, std::uint64_t nonce);

  /// XOR the keystream starting at byte `offset` into data (in place).
  /// Random access: any offset may be processed in any order.
  void crypt(std::span<std::uint8_t> data, std::uint64_t offset = 0) const;

  /// Convenience: returns the transformed copy.
  util::Bytes crypt_copy(util::BytesView data, std::uint64_t offset = 0) const;

 private:
  Aes128 cipher_;
  std::uint64_t nonce_;
};

}  // namespace p2pdrm::crypto
