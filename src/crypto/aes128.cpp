#include "crypto/aes128.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace p2pdrm::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

void add_round_key(std::uint8_t s[16], const std::uint8_t* rk) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

void sub_bytes(std::uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

// State layout: state[4*c + r] is row r, column c (column-major, as in FIPS
// 197's byte ordering of the input block).
void shift_rows(std::uint8_t s[16]) {
  std::uint8_t t;
  // row 1: shift left by 1
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // row 2: shift left by 2
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // row 3: shift left by 3 (== right by 1)
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void mix_columns(std::uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void encrypt(const detail::RoundKeys& rk, const std::uint8_t* in, std::uint8_t* out) {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  add_round_key(s, rk.data());
  for (int round = 1; round < 10; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, rk.data() + 16 * round);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, rk.data() + 160);
  std::memcpy(out, s, 16);
}

#if defined(__x86_64__)
// The ten rounds on four blocks at once: four independent AESENC chains keep
// the AES unit's pipeline full.
__attribute__((target("aes,sse4.1"))) inline void aesni_encrypt4(const __m128i* rk,
                                                                __m128i& b0, __m128i& b1,
                                                                __m128i& b2, __m128i& b3) {
  b0 = _mm_xor_si128(b0, rk[0]);
  b1 = _mm_xor_si128(b1, rk[0]);
  b2 = _mm_xor_si128(b2, rk[0]);
  b3 = _mm_xor_si128(b3, rk[0]);
  for (int round = 1; round < 10; ++round) {
    b0 = _mm_aesenc_si128(b0, rk[round]);
    b1 = _mm_aesenc_si128(b1, rk[round]);
    b2 = _mm_aesenc_si128(b2, rk[round]);
    b3 = _mm_aesenc_si128(b3, rk[round]);
  }
  b0 = _mm_aesenclast_si128(b0, rk[10]);
  b1 = _mm_aesenclast_si128(b1, rk[10]);
  b2 = _mm_aesenclast_si128(b2, rk[10]);
  b3 = _mm_aesenclast_si128(b3, rk[10]);
}

// Counter block nonce || block, both big-endian, as a register.
inline __m128i counter_block(std::uint64_t nonce_be, std::uint64_t block) {
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(block)),
                        static_cast<long long>(nonce_be));
}

inline __m128i xor_loadu(const std::uint8_t* p, __m128i k) {
  return _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), k);
}
#endif

}  // namespace

namespace detail {

void ctr_portable(const RoundKeys& rk, std::uint64_t nonce, std::uint64_t block,
                  std::size_t in_block, std::span<std::uint8_t> data) {
  AesBlock counter{};
  AesBlock keystream;
  util::store_be64(counter.data(), nonce);
  std::size_t pos = 0;
  while (pos < data.size()) {
    util::store_be64(counter.data() + 8, block++);
    encrypt(rk, counter.data(), keystream.data());
    const std::size_t take = std::min(kAesBlockSize - in_block, data.size() - pos);
    for (std::size_t i = 0; i < take; ++i) data[pos + i] ^= keystream[in_block + i];
    pos += take;
    in_block = 0;
  }
}

#if defined(__x86_64__)
bool cpu_has_aesni() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes");
}

__attribute__((target("aes,sse4.1"))) void ctr_aesni(const RoundKeys& keys,
                                                     std::uint64_t nonce,
                                                     std::uint64_t block,
                                                     std::size_t in_block,
                                                     std::span<std::uint8_t> data) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys.data() + 16 * r));
  }
  const std::uint64_t nonce_be = __builtin_bswap64(nonce);
  std::uint8_t* p = data.data();
  std::size_t left = data.size();
  for (; left != 0; block += 4) {
    __m128i b0 = counter_block(nonce_be, block);
    __m128i b1 = counter_block(nonce_be, block + 1);
    __m128i b2 = counter_block(nonce_be, block + 2);
    __m128i b3 = counter_block(nonce_be, block + 3);
    aesni_encrypt4(rk, b0, b1, b2, b3);
    if (in_block == 0 && left >= 64) {
      auto* q = reinterpret_cast<__m128i*>(p);
      _mm_storeu_si128(q, xor_loadu(p, b0));
      _mm_storeu_si128(q + 1, xor_loadu(p + 16, b1));
      _mm_storeu_si128(q + 2, xor_loadu(p + 32, b2));
      _mm_storeu_si128(q + 3, xor_loadu(p + 48, b3));
      p += 64;
      left -= 64;
      continue;
    }
    // A partial batch: the head (starting mid-block) or the tail.
    alignas(16) std::uint8_t keystream[64];
    auto* k = reinterpret_cast<__m128i*>(keystream);
    _mm_store_si128(k, b0);
    _mm_store_si128(k + 1, b1);
    _mm_store_si128(k + 2, b2);
    _mm_store_si128(k + 3, b3);
    const std::size_t take = std::min(sizeof keystream - in_block, left);
    for (std::size_t i = 0; i < take; ++i) p[i] ^= keystream[in_block + i];
    p += take;
    left -= take;
    in_block = 0;
  }
}
#endif

}  // namespace detail

Aes128::Aes128(const AesKey& key) {
  std::uint8_t* rk = round_keys_.data();
  std::copy(key.begin(), key.end(), rk);
  for (std::size_t i = kAesKeySize; i < round_keys_.size(); i += 4) {
    std::uint8_t t[4] = {rk[i - 4], rk[i - 3], rk[i - 2], rk[i - 1]};
    if (i % kAesKeySize == 0) {  // RotWord, SubWord, Rcon
      const std::uint8_t t0 = t[0];
      t[0] = kSbox[t[1]] ^ kRcon[i / kAesKeySize - 1];
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j) rk[i + j] = rk[i + j - kAesKeySize] ^ t[j];
  }
}

void Aes128::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  encrypt(round_keys_, in, out);
}

AesCtr::AesCtr(const AesKey& key, std::uint64_t nonce)
    : cipher_(key), nonce_(nonce) {}

void AesCtr::crypt(std::span<std::uint8_t> data, std::uint64_t offset) const {
  static const detail::CtrKernel kernel = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_aesni()) return &detail::ctr_aesni;
#endif
    return &detail::ctr_portable;
  }();
  kernel(cipher_.round_keys(), nonce_, offset / kAesBlockSize,
         static_cast<std::size_t>(offset % kAesBlockSize), data);
}

util::Bytes AesCtr::crypt_copy(util::BytesView data, std::uint64_t offset) const {
  util::Bytes out(data.begin(), data.end());
  crypt(out, offset);
  return out;
}

}  // namespace p2pdrm::crypto
