#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "crypto/sha256.h"

namespace p2pdrm::crypto {

namespace {

using detail::kChaChaLanes;

// Word i of W consecutive blocks' states: block j's word i is lane j. GCC
// and Clang vector extensions, and a plain word for one block, so the
// round function below is the scalar one and compiles to whatever SIMD the
// calling kernel's target has. The helpers take vectors by reference and
// are always inlined: a 32- or 64-byte vector passed by value would have a
// different ABI under each target.
template <std::size_t W>
struct LanesOf {
  typedef std::uint32_t type __attribute__((vector_size(4 * W)));
};
template <>
struct LanesOf<1> {
  using type = std::uint32_t;
};

template <class V>
[[gnu::always_inline]] inline void rotl(V& x, int n) {
  x = (x << n) | (x >> (32 - n));
}

template <class V>
[[gnu::always_inline]] inline void quarter_round(V& a, V& b, V& c, V& d) {
  a += b; d ^= a; rotl(d, 16);
  c += d; b ^= c; rotl(b, 12);
  a += b; d ^= a; rotl(d, 8);
  c += d; b ^= c; rotl(b, 7);
}

// Word k of a two-vector shuffle that interleaves a and b within each
// 16-byte chunk, `width` words at a time, from the chunks' low (half 0) or
// high half: SSE2's punpck{l,h}{dq,qdq} at any vector width.
constexpr int unpack_index(std::size_t k, std::size_t lanes, std::size_t width,
                           std::size_t half) {
  const std::size_t p = k % 4;
  const std::size_t from_b = p / width % 2;
  const std::size_t word = 2 * half + (width == 1 ? p / 2 : p % 2);
  return static_cast<int>(from_b * lanes + k / 4 * 4 + word);
}

template <std::size_t Width, std::size_t Half, class V, std::size_t... K>
[[gnu::always_inline]] inline void unpack(V& out, const V& a, const V& b,
                                          std::index_sequence<K...>) {
  out = __builtin_shufflevector(a, b, unpack_index(K, sizeof...(K), Width, Half)...);
}

// Blocks counter .. counter + blocks - 1 into out, W at a time (blocks is
// a multiple of W, at most kChaChaLanes).
template <std::size_t W>
[[gnu::always_inline]] inline void chacha20_lanes(const ChaChaKey& key,
                                                  const ChaChaNonce& nonce,
                                                  std::uint32_t counter,
                                                  std::size_t blocks,
                                                  std::uint8_t* out) {
  using V = typename LanesOf<W>::type;
  const std::uint32_t constants[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  // Words 12-15 of each block: its counter, and the nonce, rolled in the
  // blocks past the counter wrap.
  std::uint32_t lane_words[4][kChaChaLanes];
  std::uint32_t n[3];
  for (int i = 0; i < 3; ++i) n[i] = util::load_le32(nonce.data() + 4 * i);
  for (std::uint32_t j = 0; j < blocks; ++j) {
    const std::uint32_t c = counter + j;
    if (j > 0 && c == 0) {
      if (++n[0] == 0 && ++n[1] == 0) ++n[2];
    }
    lane_words[0][j] = c;
    for (int i = 0; i < 3; ++i) lane_words[1 + i][j] = n[i];
  }

  for (std::size_t first = 0; first < blocks; first += W) {
    V state[16];
    for (int i = 0; i < 4; ++i) state[i] = V{} + constants[i];
    for (int i = 0; i < 8; ++i) state[4 + i] = V{} + util::load_le32(key.data() + 4 * i);
    for (int i = 0; i < 4; ++i) std::memcpy(&state[12 + i], lane_words[i] + first, sizeof(V));

    V w[16];
    for (int i = 0; i < 16; ++i) w[i] = state[i];
    for (int i = 0; i < 10; ++i) {
      quarter_round(w[0], w[4], w[8], w[12]);
      quarter_round(w[1], w[5], w[9], w[13]);
      quarter_round(w[2], w[6], w[10], w[14]);
      quarter_round(w[3], w[7], w[11], w[15]);
      quarter_round(w[0], w[5], w[10], w[15]);
      quarter_round(w[1], w[6], w[11], w[12]);
      quarter_round(w[2], w[7], w[8], w[13]);
      quarter_round(w[3], w[4], w[9], w[14]);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) w[i] += state[i];
    if constexpr (W >= 4 && std::endian::native == std::endian::little) {
      // Transpose in 4x4 tiles of words: after the two unpack steps, r[k]'s
      // 16-byte chunk c holds words 4g .. 4g + 3 of block first + 4c + k.
      constexpr auto lanes = std::make_index_sequence<W>{};
#pragma GCC unroll 4
      for (int g = 0; g < 4; ++g) {
        const V* a = w + 4 * g;
        V t[4], r[4];
        unpack<1, 0>(t[0], a[0], a[1], lanes);
        unpack<1, 1>(t[1], a[0], a[1], lanes);
        unpack<1, 0>(t[2], a[2], a[3], lanes);
        unpack<1, 1>(t[3], a[2], a[3], lanes);
        unpack<2, 0>(r[0], t[0], t[2], lanes);
        unpack<2, 1>(r[1], t[0], t[2], lanes);
        unpack<2, 0>(r[2], t[1], t[3], lanes);
        unpack<2, 1>(r[3], t[1], t[3], lanes);
#pragma GCC unroll 4
        for (std::size_t c = 0; c < W / 4; ++c) {
#pragma GCC unroll 4
          for (std::size_t k = 0; k < 4; ++k) {
            std::memcpy(out + kChaChaBlockSize * (first + 4 * c + k) + 16 * g,
                        reinterpret_cast<const std::uint8_t*>(&r[k]) + 16 * c, 16);
          }
        }
      }
    } else {
      alignas(sizeof(V)) std::uint32_t words[16][W];
      for (int i = 0; i < 16; ++i) std::memcpy(words[i], &w[i], sizeof(V));
      for (std::size_t j = 0; j < W; ++j) {
        for (int i = 0; i < 16; ++i) {
          util::store_le32(out + kChaChaBlockSize * (first + j) + 4 * i, words[i][j]);
        }
      }
    }
  }
}

}  // namespace

namespace detail {

void chacha20_blocks_portable(const ChaChaKey& key, const ChaChaNonce& nonce,
                              std::uint32_t counter, std::uint8_t* out) {
  chacha20_lanes<4>(key, nonce, counter, kChaChaLanes, out);
}

#if defined(__x86_64__)
bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

__attribute__((target("avx2"))) void chacha20_blocks_avx2(const ChaChaKey& key,
                                                          const ChaChaNonce& nonce,
                                                          std::uint32_t counter,
                                                          std::uint8_t* out) {
  chacha20_lanes<8>(key, nonce, counter, kChaChaLanes, out);
}

bool cpu_has_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

__attribute__((target("avx512f"))) void chacha20_blocks_avx512(const ChaChaKey& key,
                                                              const ChaChaNonce& nonce,
                                                              std::uint32_t counter,
                                                              std::uint8_t* out) {
  chacha20_lanes<16>(key, nonce, counter, kChaChaLanes, out);
}
#endif

void chacha20_blocks(const ChaChaKey& key, const ChaChaNonce& nonce,
                     std::uint32_t counter,
                     std::uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  static const ChaChaKernel kernel = [] {
#if defined(__x86_64__)
    if (cpu_has_avx512f()) return &chacha20_blocks_avx512;
    if (cpu_has_avx2()) return &chacha20_blocks_avx2;
#endif
    return &chacha20_blocks_portable;
  }();
  kernel(key, nonce, counter, out);
}

}  // namespace detail

void chacha20_block(const ChaChaKey& key, const ChaChaNonce& nonce,
                    std::uint32_t counter, std::uint8_t out[kChaChaBlockSize]) {
  chacha20_lanes<1>(key, nonce, counter, 1, out);
}

SecureRandom::SecureRandom(std::uint64_t seed) {
  std::uint8_t seed_bytes[8];
  util::store_be64(seed_bytes, seed);
  const Sha256Digest d = sha256(util::BytesView(seed_bytes, 8));
  std::memcpy(key_.data(), d.data(), kChaChaKeySize);
}

SecureRandom::SecureRandom(util::BytesView seed) {
  const Sha256Digest d = sha256(seed);
  std::memcpy(key_.data(), d.data(), kChaChaKeySize);
}

void SecureRandom::refill() {
  detail::chacha20_blocks(key_, nonce_, counter_, buffer_.data());
  buffer_pos_ = 0;
  const std::uint32_t first = counter_;
  counter_ += detail::kChaChaLanes;
  if (counter_ < first) {
    // Counter wrapped (after 256 GiB of output): roll the nonce, as the
    // core did for the lanes past the wrap.
    for (std::size_t i = 0; i < kChaChaNonceSize; ++i) {
      if (++nonce_[i] != 0) break;
    }
  }
}

void SecureRandom::fill(std::span<std::uint8_t> out) {
  std::size_t pos = 0;
  while (pos < out.size()) {
    if (buffer_pos_ == kBufferSize) refill();
    const std::size_t take = std::min(kBufferSize - buffer_pos_, out.size() - pos);
    std::memcpy(out.data() + pos, buffer_.data() + buffer_pos_, take);
    buffer_pos_ += take;
    pos += take;
  }
}

util::Bytes SecureRandom::bytes(std::size_t n) {
  util::Bytes out(n);
  fill(out);
  return out;
}

// next_u32 and next_u64 read the bytes fill() would give, straight from
// the buffer unless the draw straddles a refill.
std::uint32_t SecureRandom::next_u32() {
  if (buffer_pos_ == kBufferSize) refill();
  if (kBufferSize - buffer_pos_ >= 4) {
    const std::uint32_t v = util::load_be32(buffer_.data() + buffer_pos_);
    buffer_pos_ += 4;
    return v;
  }
  std::uint8_t b[4];
  fill(b);
  return util::load_be32(b);
}

std::uint64_t SecureRandom::next_u64() {
  if (buffer_pos_ == kBufferSize) refill();
  if (kBufferSize - buffer_pos_ >= 8) {
    const std::uint64_t v = util::load_be64(buffer_.data() + buffer_pos_);
    buffer_pos_ += 8;
    return v;
  }
  std::uint8_t b[8];
  fill(b);
  return util::load_be64(b);
}

std::uint64_t SecureRandom::uniform(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

std::int64_t SecureRandom::uniform_range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double SecureRandom::uniform_real() {
  // 53 random bits → [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double SecureRandom::exponential(double rate) {
  double u;
  do {
    u = uniform_real();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

double SecureRandom::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1;
  do {
    u1 = uniform_real();
  } while (u1 == 0.0);
  const double u2 = uniform_real();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

double SecureRandom::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double SecureRandom::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool SecureRandom::chance(double p) { return uniform_real() < p; }

SecureRandom SecureRandom::fork() {
  return SecureRandom(util::BytesView(bytes(32)));
}

}  // namespace p2pdrm::crypto
