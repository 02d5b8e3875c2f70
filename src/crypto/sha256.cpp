#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace p2pdrm::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = util::load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
bool cpu_has_sha() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // Leaf 7, EBX bit 29: GCC 12's __builtin_cpu_supports("sha") reads 0
  // on CPUs that have the extensions.
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  __builtin_cpu_init();
  return ((ebx >> 29) & 1) != 0 && __builtin_cpu_supports("sse4.1");
}

// The SHA extensions keep the state as two vectors, ABEF and CDGH (lane 3
// first), and run two rounds per sha256rnds2; each group of four rounds
// takes one vector of message words plus constants, and sha256msg1/msg2
// extend the schedule four words at a time, the message vectors rotating
// through msg[0..3].
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(std::uint32_t* state,
                                                                  const std::uint8_t* data,
                                                                  std::size_t blocks) {
  const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i efgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i hgfe = _mm_shuffle_epi32(efgh, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& m = msg[g % 4];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byteswap);
      }
      __m128i wk =
          _mm_add_epi32(m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(m, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        __m128i& prev = msg[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, m);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace detail

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) {
  static const detail::Sha256Kernel kernel = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_sha()) return &detail::sha256_compress_shani;
#endif
    return &detail::sha256_compress_portable;
  }();
  kernel(state_.data(), data, blocks);
}

void Sha256::update(util::BytesView data) {
  // An empty view may carry a null data(): memcpy from it is undefined even
  // for zero bytes.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kSha256BlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == kSha256BlockSize) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - off) / kSha256BlockSize; blocks > 0) {
    compress(data.data() + off, blocks);
    off += blocks * kSha256BlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha256Digest Sha256::finish() {
  // Pad in place: 0x80, zeros up to byte 56 of a block (spilling into a
  // second block when fewer than 8 bytes remain), then the bit length.
  // update() leaves buffer_len_ below a full block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, kSha256BlockSize - buffer_len_);
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  util::store_be64(buffer_.data() + 56, total_len_ * 8);
  compress(buffer_.data(), 1);
  buffer_len_ = 0;

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) util::store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha256Digest sha256(util::BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

util::Bytes sha256_bytes(util::BytesView data) {
  const Sha256Digest d = sha256(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace p2pdrm::crypto
