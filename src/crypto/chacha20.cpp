#include "crypto/chacha20.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "crypto/sha256.h"

namespace p2pdrm::crypto {

namespace {

// Word i of the four lanes' states: lane j's word i is element j. GCC and
// Clang vector extensions, so the round function below is the scalar one
// and compiles to whatever SIMD the target has.
typedef std::uint32_t Lanes __attribute__((vector_size(16)));
static_assert(sizeof(Lanes) == detail::kChaChaLanes * sizeof(std::uint32_t));

inline Lanes rotl(Lanes x, int n) { return (x << n) | (x >> (32 - n)); }

inline void quarter_round(Lanes& a, Lanes& b, Lanes& c, Lanes& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

inline Lanes broadcast(std::uint32_t v) { return Lanes{v, v, v, v}; }

}  // namespace

void detail::chacha20_blocks(const ChaChaKey& key, const ChaChaNonce& nonce,
                             std::uint32_t counter,
                             std::uint8_t out[kChaChaLanes * kChaChaBlockSize]) {
  Lanes state[16];
  state[0] = broadcast(0x61707865);
  state[1] = broadcast(0x3320646e);
  state[2] = broadcast(0x79622d32);
  state[3] = broadcast(0x6b206574);
  for (int i = 0; i < 8; ++i) state[4 + i] = broadcast(util::load_le32(key.data() + 4 * i));
  std::uint32_t n[3];
  for (int i = 0; i < 3; ++i) n[i] = util::load_le32(nonce.data() + 4 * i);
  for (std::uint32_t j = 0; j < kChaChaLanes; ++j) {
    const std::uint32_t c = counter + j;
    if (j > 0 && c == 0) {
      // This lane is past the counter wrap: roll the nonce.
      if (++n[0] == 0 && ++n[1] == 0) ++n[2];
    }
    state[12][j] = c;
    for (int i = 0; i < 3; ++i) state[13 + i][j] = n[i];
  }

  Lanes w[16];
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
  for (int i = 0; i < 16; ++i) {
    const Lanes sum = w[i] + state[i];
    for (std::size_t j = 0; j < kChaChaLanes; ++j) {
      util::store_le32(out + kChaChaBlockSize * j + 4 * i, sum[j]);
    }
  }
}

void chacha20_block(const ChaChaKey& key, const ChaChaNonce& nonce,
                    std::uint32_t counter, std::uint8_t out[kChaChaBlockSize]) {
  std::uint8_t blocks[detail::kChaChaLanes * kChaChaBlockSize];
  detail::chacha20_blocks(key, nonce, counter, blocks);
  std::memcpy(out, blocks, kChaChaBlockSize);
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
