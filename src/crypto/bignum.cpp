#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "crypto/chacha20.h"

namespace p2pdrm::crypto {

namespace {
constexpr std::uint64_t kBase = 1ull << 32;
}

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_bytes_be(util::BytesView bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // bytes[size-1-i] is the i-th least significant byte.
    const std::uint8_t b = bytes[bytes.size() - 1 - i];
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(b) << (8 * (i % 4));
  }
  out.trim();
  return out;
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes_be(util::from_hex(padded));
}

util::Bytes BigUInt::to_bytes_be(std::size_t min_len) const {
  util::Bytes out;
  const std::size_t nbytes = (bit_length() + 7) / 8;
  const std::size_t total = std::max(nbytes, min_len);
  out.assign(total, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    out[total - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::to_hex(to_bytes_be());
  const std::size_t nz = s.find_first_not_of('0');
  return s.substr(nz);
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 32 * (limbs_.size() - 1) +
         (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUInt::low_u64() const {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt BigUInt::add_impl(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUInt BigUInt::sub_impl(const BigUInt& a, const BigUInt& b) {
  if (a < b) throw std::underflow_error("BigUInt: negative subtraction result");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator+(const BigUInt& rhs) const { return add_impl(*this, rhs); }
BigUInt BigUInt::operator-(const BigUInt& rhs) const { return sub_impl(*this, rhs); }

BigUInt BigUInt::operator*(const BigUInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigUInt{};
  BigUInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.limbs_[i + j]) +
                                ai * rhs.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + rhs.limbs_.size()] += static_cast<std::uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator<<(std::size_t n) const {
  if (is_zero() || n == 0) return *this;
  const std::size_t limb_shift = n / 32;
  const std::size_t bit_shift = n % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |=
          static_cast<std::uint32_t>(limbs_[i] >> (32 - bit_shift));
    }
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator>>(std::size_t n) const {
  const std::size_t limb_shift = n / 32;
  if (limb_shift >= limbs_.size()) return BigUInt{};
  const std::size_t bit_shift = n % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (32 - bit_shift);
    }
  }
  out.trim();
  return out;
}

DivModResult BigUInt::divmod(const BigUInt& u, const BigUInt& v) {
  if (v.is_zero()) throw std::domain_error("BigUInt: division by zero");
  if (u < v) return {BigUInt{}, u};

  // Single-limb divisor fast path.
  if (v.limbs_.size() == 1) {
    const std::uint64_t d = v.limbs_[0];
    BigUInt q;
    q.limbs_.assign(u.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = u.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | u.limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigUInt(rem)};
  }

  // Knuth TAOCP vol. 2, algorithm D (adapted from Hacker's Delight divmnu).
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size();
  const int s = std::countl_zero(v.limbs_[n - 1]);

  std::vector<std::uint32_t> vn(n);
  for (std::size_t i = n; i-- > 1;) {
    vn[i] = (v.limbs_[i] << s) |
            (s ? static_cast<std::uint32_t>(
                     static_cast<std::uint64_t>(v.limbs_[i - 1]) >> (32 - s))
               : 0);
  }
  vn[0] = v.limbs_[0] << s;

  std::vector<std::uint32_t> un(m + 1);
  un[m] = s ? static_cast<std::uint32_t>(
                  static_cast<std::uint64_t>(u.limbs_[m - 1]) >> (32 - s))
            : 0;
  for (std::size_t i = m; i-- > 1;) {
    un[i] = (u.limbs_[i] << s) |
            (s ? static_cast<std::uint32_t>(
                     static_cast<std::uint64_t>(u.limbs_[i - 1]) >> (32 - s))
               : 0);
  }
  un[0] = u.limbs_[0] << s;

  BigUInt q;
  q.limbs_.assign(m - n + 1, 0);

  for (std::size_t j = m - n + 1; j-- > 0;) {
    std::uint64_t qhat =
        ((static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1]) /
        vn[n - 1];
    std::uint64_t rhat =
        ((static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1]) %
        vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply and subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                             borrow -
                             static_cast<std::int64_t>(p & 0xffffffffull);
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) - borrow -
                           static_cast<std::int64_t>(carry);
    un[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add v back.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<std::uint32_t>(sum);
        c = sum >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + c);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  BigUInt r;
  r.limbs_.assign(n, 0);
  for (std::size_t i = 0; i < n - 1; ++i) {
    r.limbs_[i] = (un[i] >> s) |
                  (s ? static_cast<std::uint32_t>(
                           static_cast<std::uint64_t>(un[i + 1]) << (32 - s))
                     : 0);
  }
  r.limbs_[n - 1] = un[n - 1] >> s;

  q.trim();
  r.trim();
  return {q, r};
}

BigUInt BigUInt::operator/(const BigUInt& rhs) const {
  return divmod(*this, rhs).quotient;
}

BigUInt BigUInt::operator%(const BigUInt& rhs) const {
  return divmod(*this, rhs).remainder;
}

std::uint32_t BigUInt::mod_u32(std::uint32_t m) const {
  if (m == 0) throw std::domain_error("BigUInt: mod by zero");
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | limbs_[i]) % m;
  }
  return static_cast<std::uint32_t>(rem);
}

BigUInt BigUInt::mod_pow(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  if (m < BigUInt(2)) throw std::domain_error("BigUInt: modulus must be >= 2");
  if (m.is_odd()) return Montgomery(m).pow(base, exp);

  // Rare even-modulus fallback: plain square-and-multiply.
  BigUInt result(1);
  BigUInt b = base % m;
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUInt BigUInt::mod_inverse(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid on (m, a mod m), tracking only the coefficient of a.
  // Signs are tracked separately since BigUInt is unsigned.
  BigUInt r0 = m, r1 = a % m;
  BigUInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;

  while (!r1.is_zero()) {
    const DivModResult dm = divmod(r0, r1);
    // (t0, t1) <- (t1, t0 - q*t1)
    BigUInt qt = dm.quotient * t1;
    const bool qt_neg = t1_neg;
    BigUInt next_t;
    bool next_neg;
    if (t0_neg == qt_neg) {
      if (t0 >= qt) {
        next_t = t0 - qt;
        next_neg = t0_neg;
      } else {
        next_t = qt - t0;
        next_neg = !t0_neg;
      }
    } else {
      next_t = t0 + qt;
      next_neg = t0_neg;
    }
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(next_t);
    t1_neg = next_neg;
    r0 = std::move(r1);
    r1 = dm.remainder;
  }

  if (r0 != BigUInt(1)) {
    throw std::domain_error("BigUInt: mod_inverse of non-coprime value");
  }
  if (t0.is_zero()) return t0;
  return t0_neg ? (m - (t0 % m)) : (t0 % m);
}

BigUInt BigUInt::random_with_bits(SecureRandom& rng, std::size_t bits) {
  if (bits == 0) return BigUInt{};
  const std::size_t nbytes = (bits + 7) / 8;
  util::Bytes b = rng.bytes(nbytes);
  // Clear excess top bits, then set the top bit so the width is exact.
  const std::size_t top_bits = bits % 8 == 0 ? 8 : bits % 8;
  b[0] &= static_cast<std::uint8_t>(0xff >> (8 - top_bits));
  b[0] |= static_cast<std::uint8_t>(1 << (top_bits - 1));
  return from_bytes_be(b);
}

BigUInt BigUInt::random_below(SecureRandom& rng, const BigUInt& bound) {
  if (bound.is_zero()) throw std::domain_error("BigUInt: random_below(0)");
  const std::size_t bits = bound.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  const std::size_t top_bits = bits % 8 == 0 ? 8 : bits % 8;
  for (;;) {
    util::Bytes b = rng.bytes(nbytes);
    b[0] &= static_cast<std::uint8_t>(0xff >> (8 - top_bits));
    BigUInt candidate = from_bytes_be(b);
    if (candidate < bound) return candidate;
  }
}

// ---------------------------------------------------------------------------
// Montgomery

namespace {

using Limb = std::uint64_t;
using Wide = unsigned __int128;

/// Little-endian 32-bit limbs -> k little-endian 64-bit limbs, zero-filled.
void pack_limbs(const std::vector<std::uint32_t>& in, std::uint64_t* out,
                std::size_t k) {
  std::fill_n(out, k, std::uint64_t{0});
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(in[i]) << (32 * (i % 2));
  }
}

std::vector<std::uint32_t> unpack_limbs(const std::uint64_t* in, std::size_t k) {
  std::vector<std::uint32_t> out(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    out[2 * i] = static_cast<std::uint32_t>(in[i]);
    out[2 * i + 1] = static_cast<std::uint32_t>(in[i] >> 32);
  }
  return out;
}

/// Bits [pos, pos + w) of a little-endian 32-bit-limb number; pos must be
/// below its bit length.
std::uint32_t window_at(const std::vector<std::uint32_t>& e, std::size_t pos,
                        unsigned w) {
  const std::size_t limb = pos / 32;
  const std::size_t shift = pos % 32;
  std::uint64_t v = e[limb] >> shift;
  if (shift + w > 32 && limb + 1 < e.size()) {
    v |= static_cast<std::uint64_t>(e[limb + 1]) << (32 - shift);
  }
  return static_cast<std::uint32_t>(v) & ((1u << w) - 1);
}

/// a * b + c + carry, which fits in 128 bits: returns the low limb and
/// leaves the high one in carry. c and carry are added as limbs with
/// explicit carry-outs rather than as 128-bit sums, which keeps GCC from
/// spilling the kernel's two interleaved carry chains to the stack.
inline Limb mul_add(Limb a, Limb b, Limb c, Limb& carry) {
  const Wide p = static_cast<Wide>(a) * b;
  Limb lo = static_cast<Limb>(p);
  Limb hi = static_cast<Limb>(p >> 64);
  lo += c;
  hi += lo < c;
  lo += carry;
  hi += lo < carry;
  carry = hi;
  return lo;
}

/// out = t mod n for a k + 1-limb t < 2n: keep t - n unless it borrows past
/// t's top limb t[k] (t < n).
inline void subtract_if_ge(Limb* out, const Limb* t, const Limb* n, std::size_t k) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Wide diff = static_cast<Wide>(t[i]) - n[i] - borrow;
    out[i] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  if (borrow > t[k]) std::copy_n(t, k, out);
}

/// out = a * b * R^{-1} mod n for a, b < n, by one FIOS (finely integrated
/// operand scanning) pass per limb of a: m is derived from t[0] + a[i] * b[0]
/// first, then one j loop runs the product carry chain (c1) and the reduction
/// carry chain (c2) side by side, and the two chains are independent. K is
/// the limb count k fixed at compile time, or 0 to read k at run time; the
/// k + 1 scratch limbs live in the object (on the stack when K > 0).
template <std::size_t K>
class Fios {
 public:
  Fios(const Limb* n, Limb n_prime, std::size_t k)
      : n_(n), n_prime_(n_prime), k_(k) {
    if constexpr (K == 0) t_.resize(k + 1);
  }

  std::size_t k() const { return K != 0 ? K : k_; }

  /// out may alias a or b.
  void operator()(Limb* out, const Limb* a, const Limb* b) {
    const std::size_t k = this->k();
    const Limb* n = n_;
    Limb* t = t_.data();
    std::fill_n(t, k + 1, Limb{0});
    for (std::size_t i = 0; i < k; ++i) {
      const Limb ai = a[i];
      Limb c1 = 0;
      Limb c2 = 0;
      const Limb p0 = mul_add(ai, b[0], t[0], c1);
      const Limb m = p0 * n_prime_;
      mul_add(m, n[0], p0, c2);  // low limb 0 by the choice of m
      for (std::size_t j = 1; j < k; ++j) {
        t[j - 1] = mul_add(m, n[j], mul_add(ai, b[j], t[j], c1), c2);
      }
      // t < 2n after every pass, so its top limb t[k] is 0 or 1.
      const Wide top = static_cast<Wide>(t[k]) + c1 + c2;
      t[k - 1] = static_cast<Limb>(top);
      t[k] = static_cast<Limb>(top >> 64);
    }

    subtract_if_ge(out, t, n, k);
  }

 private:
  const Limb* n_;
  Limb n_prime_;
  std::size_t k_;
  std::conditional_t<K != 0, std::array<Limb, K + 1>, std::vector<Limb>> t_;
};

#if defined(__x86_64__)
/// What the mulx/adx kernels read through one base register: the multiplier
/// b and the modulus n, copied in per multiply, and n'.
template <std::size_t K>
struct AdxArgs {
  Limb b[K];
  Limb n[K];
  Limb n_prime;
  Limb top;  // the register rows' top carry limb, held across the reduction
};

// The mulx/adx rows. Each row adds x * b (x = a[i], in rdx) and then m * n
// (m = t[0] * n' mod 2^64, also in rdx) into the accumulator t and drops
// t[0], which the second pass zeroes. Each pass runs two carry chains that
// do not touch each other's flag: the low product limbs go in with adcx
// (CF) and the high ones with adox (OF). t < 2n between rows, so after a row
// its top limb t[k] is 0 or 1; within one, after the x * b pass, t may
// carry one limb higher still when n's top limb is all ones.

// t_j += low(rdx * v_j) on CF, t_{j+1} += high(rdx * v_j) on OF, with t in
// the registers t0..tk; v is b or n, as an offset into AdxArgs.
#define P2PDRM_ADX_STEP(v, j, j1)                \
  "mulx " v "+8*" #j "(%[s]), %[lo], %[hi]\n\t" \
  "adcx %[lo], %[t" #j "]\n\t"                  \
  "adox %[hi], %[t" #j1 "]\n\t"
#define P2PDRM_ADX_PASS4(v)                                            \
  P2PDRM_ADX_STEP(v, 0, 1) P2PDRM_ADX_STEP(v, 1, 2) P2PDRM_ADX_STEP(v, 2, 3) \
  P2PDRM_ADX_STEP(v, 3, 4)
#define P2PDRM_ADX_PASS8(v)                                            \
  P2PDRM_ADX_PASS4(v) P2PDRM_ADX_STEP(v, 4, 5) P2PDRM_ADX_STEP(v, 5, 6)      \
  P2PDRM_ADX_STEP(v, 6, 7) P2PDRM_ADX_STEP(v, 7, 8)

// One row with t in registers. The carry limb above tk after the x * b pass
// waits in AdxArgs::top; the new top limb comes out in t0's register, whose
// limb the row has dropped, so the caller renames t down by one limb.
#define P2PDRM_ADX_ROW(PASS, k)                                        \
  "xor %k[lo], %k[lo]\n\t" /* clear CF and OF */                       \
  PASS("%c[b]")                                                        \
  "mov $0, %k[lo]\n\t" /* mov leaves the flags alone */                \
  "adcx %[lo], %[t" #k "]\n\t"                                         \
  "mov $0, %k[hi]\n\t"                                                 \
  "adcx %[lo], %[hi]\n\t"                                              \
  "adox %[lo], %[hi]\n\t"                                              \
  "mov %[hi], %c[top](%[s])\n\t"                                       \
  "mov %[t0], %[x]\n\t"                                                \
  "imul %c[np](%[s]), %[x]\n\t"                                        \
  "xor %k[lo], %k[lo]\n\t"                                             \
  PASS("%c[n]")                                                        \
  "adcx %[t0], %[t" #k "]\n\t" /* t0 is now 0 */                       \
  "mov %c[top](%[s]), %[hi]\n\t"                                       \
  "adcx %[t0], %[hi]\n\t"                                              \
  "adox %[t0], %[hi]\n\t"                                              \
  "mov %[hi], %[t0]\n\t"

// The same with t in memory, for widths whose t does not fit in registers:
// w points at this row's t[0], and two registers carry t_j and t_{j+1},
// swapping roles every step. Each pass ends by storing t_k and the carry
// limb above it; the caller moves w up one limb instead of shifting t.
#define P2PDRM_ADX_MSTEP(v, j, c, y)                   \
  "mulx " v "+8*" #j "(%[s]), %[lo], %[hi]\n\t"       \
  "adcx %[lo], %[" #c "]\n\t"                         \
  "adox %[hi], %[" #y "]\n\t"                         \
  "mov %[" #c "], 8*" #j "(%[w])\n\t"                 \
  "mov 8*" #j "+16(%[w]), %[" #c "]\n\t"
#define P2PDRM_ADX_MPASS16(v)                                                  \
  "xor %k[lo], %k[lo]\n\t"                                                     \
  "mov (%[w]), %[r0]\n\t"                                                      \
  "mov 8(%[w]), %[r1]\n\t"                                                     \
  P2PDRM_ADX_MSTEP(v, 0, r0, r1) P2PDRM_ADX_MSTEP(v, 1, r1, r0)                \
  P2PDRM_ADX_MSTEP(v, 2, r0, r1) P2PDRM_ADX_MSTEP(v, 3, r1, r0)                \
  P2PDRM_ADX_MSTEP(v, 4, r0, r1) P2PDRM_ADX_MSTEP(v, 5, r1, r0)                \
  P2PDRM_ADX_MSTEP(v, 6, r0, r1) P2PDRM_ADX_MSTEP(v, 7, r1, r0)                \
  P2PDRM_ADX_MSTEP(v, 8, r0, r1) P2PDRM_ADX_MSTEP(v, 9, r1, r0)                \
  P2PDRM_ADX_MSTEP(v, 10, r0, r1) P2PDRM_ADX_MSTEP(v, 11, r1, r0)              \
  P2PDRM_ADX_MSTEP(v, 12, r0, r1) P2PDRM_ADX_MSTEP(v, 13, r1, r0)              \
  P2PDRM_ADX_MSTEP(v, 14, r0, r1) P2PDRM_ADX_MSTEP(v, 15, r1, r0)              \
  "mov $0, %k[lo]\n\t" /* r0 holds t_16, r1 the limb above */                  \
  "adcx %[lo], %[r0]\n\t"                                                      \
  "adcx %[lo], %[r1]\n\t"                                                      \
  "adox %[lo], %[r1]\n\t"                                                      \
  "mov %[r0], 8*16(%[w])\n\t"                                                  \
  "mov %[r1], 8*17(%[w])\n\t"
#define P2PDRM_ADX_MROW16                     \
  P2PDRM_ADX_MPASS16("%c[b]")                 \
  "mov (%[w]), %[x]\n\t"                      \
  "imul %c[np](%[s]), %[x]\n\t"               \
  P2PDRM_ADX_MPASS16("%c[n]")

#define P2PDRM_ADX_INPUTS(K)                                              \
  [s] "r"(&args), [b] "i"(offsetof(AdxArgs<K>, b)),                       \
      [n] "i"(offsetof(AdxArgs<K>, n)),                                   \
      [np] "i"(offsetof(AdxArgs<K>, n_prime)),                            \
      [top] "i"(offsetof(AdxArgs<K>, top))

/// Row I of the register kernel. Limb j of the accumulator is t[(I + 1 + j)
/// % (K + 1)] going in, so the row's new top limb, which it leaves in t0's
/// register, lands where the next row wants it: the limbs are renamed, not
/// moved, and after the last row t is in order.
template <std::size_t K, std::size_t I>
__attribute__((always_inline)) inline void adx_row(
    std::array<Limb, K + 1>& t, Limb x, const AdxArgs<K>& args) {
  constexpr auto at = [](std::size_t j) { return (I + 1 + j) % (K + 1); };
  Limb lo = 0, hi = 0;
  if constexpr (K == 4) {
    asm(P2PDRM_ADX_ROW(P2PDRM_ADX_PASS4, 4)
        : [t0] "+r"(t[at(0)]), [t1] "+r"(t[at(1)]), [t2] "+r"(t[at(2)]),
          [t3] "+r"(t[at(3)]), [t4] "+r"(t[at(4)]), [lo] "=&r"(lo), [hi] "=&r"(hi),
          [x] "+d"(x)
        : P2PDRM_ADX_INPUTS(K)
        : "cc", "memory");
  } else {
    asm(P2PDRM_ADX_ROW(P2PDRM_ADX_PASS8, 8)
        : [t0] "+r"(t[at(0)]), [t1] "+r"(t[at(1)]), [t2] "+r"(t[at(2)]),
          [t3] "+r"(t[at(3)]), [t4] "+r"(t[at(4)]), [t5] "+r"(t[at(5)]),
          [t6] "+r"(t[at(6)]), [t7] "+r"(t[at(7)]), [t8] "+r"(t[at(8)]),
          [lo] "=&r"(lo), [hi] "=&r"(hi), [x] "+d"(x)
        : P2PDRM_ADX_INPUTS(K)
        : "cc", "memory");
  }
}

template <std::size_t K, std::size_t... I>
__attribute__((always_inline)) inline void adx_rows(
    std::array<Limb, K + 1>& t, const Limb* a, const AdxArgs<K>& args,
    std::index_sequence<I...>) {
  (adx_row<K, I>(t, a[I], args), ...);
}
#endif

}  // namespace

namespace detail {

template <std::size_t K>
void mont_mul_fios(Limb* out, const Limb* a, const Limb* b, const Limb* n, Limb n_prime) {
  Fios<K>(n, n_prime, K)(out, a, b);
}

template void mont_mul_fios<4>(Limb*, const Limb*, const Limb*, const Limb*, Limb);
template void mont_mul_fios<8>(Limb*, const Limb*, const Limb*, const Limb*, Limb);
template void mont_mul_fios<16>(Limb*, const Limb*, const Limb*, const Limb*, Limb);

#if defined(__x86_64__)
bool cpu_has_adx() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
}

template <std::size_t K>
__attribute__((target("bmi2,adx"))) void mont_mul_adx(Limb* out, const Limb* a,
                                                      const Limb* b, const Limb* n,
                                                      Limb n_prime) {
  static_assert(K == 4 || K == 8 || K == 16);
  AdxArgs<K> args{};
  std::copy_n(b, K, args.b);
  std::copy_n(n, K, args.n);
  args.n_prime = n_prime;
  if constexpr (K == 16) {
    // Row i works on t[i .. i + K + 1]; the product ends in t[K .. 2K].
    std::array<Limb, 2 * K + 1> t{};
    for (std::size_t i = 0; i < K; ++i) {
      Limb lo = 0, hi = 0, r0 = 0, r1 = 0, x = a[i];
      // volatile: the row's results are the stores through w.
      asm volatile(P2PDRM_ADX_MROW16
          : [lo] "=&r"(lo), [hi] "=&r"(hi), [r0] "=&r"(r0), [r1] "=&r"(r1), [x] "+d"(x)
          : P2PDRM_ADX_INPUTS(K), [w] "r"(t.data() + i)
          : "cc", "memory");
    }
    subtract_if_ge(out, t.data() + K, n, K);
  } else {
    std::array<Limb, K + 1> t{};
    adx_rows(t, a, args, std::make_index_sequence<K>{});
    // A copy, so that t's own address is never taken and t stays in registers.
    const std::array<Limb, K + 1> result = t;
    subtract_if_ge(out, result.data(), n, K);
  }
}

template void mont_mul_adx<4>(Limb*, const Limb*, const Limb*, const Limb*, Limb);
template void mont_mul_adx<8>(Limb*, const Limb*, const Limb*, const Limb*, Limb);
template void mont_mul_adx<16>(Limb*, const Limb*, const Limb*, const Limb*, Limb);

#undef P2PDRM_ADX_STEP
#undef P2PDRM_ADX_PASS4
#undef P2PDRM_ADX_PASS8
#undef P2PDRM_ADX_ROW
#undef P2PDRM_ADX_MSTEP
#undef P2PDRM_ADX_MPASS16
#undef P2PDRM_ADX_MROW16
#undef P2PDRM_ADX_INPUTS
#endif

}  // namespace detail

namespace {

/// The kernel for width K, picked on first use.
template <std::size_t K>
detail::MontMulKernel kernel_for_width() {
  static const detail::MontMulKernel kernel = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_adx()) return &detail::mont_mul_adx<K>;
#endif
    return &detail::mont_mul_fios<K>;
  }();
  return kernel;
}

}  // namespace

Montgomery::Montgomery(const BigUInt& mod)
    : n_(mod), n64_((mod.limbs_.size() + 1) / 2), k_(n64_.size()), r2_(k_) {
  if (mod.is_even() || mod < BigUInt(3)) {
    throw std::domain_error("Montgomery: modulus must be odd and >= 3");
  }
  pack_limbs(mod.limbs_, n64_.data(), k_);
  // n' = -n^{-1} mod 2^64 by Newton iteration: 1 is n's inverse to one bit,
  // and each step doubles the correct bits.
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n64_[0] * inv;
  n_prime_ = ~inv + 1;  // == -inv mod 2^64

  // R^2 mod n with R = 2^(64k).
  pack_limbs(((BigUInt(1) << (128 * k_)) % n_).limbs_, r2_.data(), k_);
}

unsigned Montgomery::window_bits(std::size_t exp_bits) {
  // Expected multiplies besides the squarings for an L-bit exponent: L / 2
  // at w = 1, and 2^w - 2 for the table plus (L / w)(1 - 2^-w) in the scan
  // otherwise. w = 4 beats w = 1 from about 53 bits and w = 5 beats w = 4
  // from about 394; the cut-overs sit just below.
  if (exp_bits <= 48) return 1;
  if (exp_bits <= 384) return 4;
  return 5;
}

BigUInt Montgomery::pow(const BigUInt& base, const BigUInt& exp) const {
  if (exp.is_zero()) return BigUInt(1) % n_;
  switch (k_) {
    case 4: return pow_width<4>(base, exp);
    case 8: return pow_width<8>(base, exp);
    case 16: return pow_width<16>(base, exp);
    default: return pow_width<0>(base, exp);
  }
}

template <std::size_t K>
BigUInt Montgomery::pow_width(const BigUInt& base, const BigUInt& exp) const {
  const std::size_t k = K != 0 ? K : k_;
  auto mul = [&] {
    if constexpr (K == 0) {
      return Fios<0>(n64_.data(), n_prime_, k_);
    } else {
      return [kernel = kernel_for_width<K>(), n = n64_.data(), n_prime = n_prime_](
                 Limb* out, const Limb* a, const Limb* b) { kernel(out, a, b, n, n_prime); };
    }
  }();
  const std::size_t bits = exp.bit_length();
  const unsigned w = window_bits(bits);
  const std::size_t entries = std::size_t{1} << w;

  // The accumulator, then the power table: entry v holds base^v * R mod n;
  // entry 0 stages plain operands.
  std::vector<Limb> buf((entries + 1) * k);
  Limb* acc = buf.data();
  auto entry = [table = acc + k, k](std::size_t v) { return table + v * k; };

  pack_limbs((base % n_).limbs_, entry(0), k);
  mul(entry(1), entry(0), r2_.data());
  for (std::size_t v = 2; v < entries; ++v) mul(entry(v), entry(v - 1), entry(1));

  // Fixed windows from the top; the top window holds exp's top bit.
  const std::size_t windows = (bits + w - 1) / w;
  std::copy_n(entry(window_at(exp.limbs_, (windows - 1) * w, w)), k, acc);
  for (std::size_t i = windows - 1; i-- > 0;) {
    for (unsigned s = 0; s < w; ++s) mul(acc, acc, acc);
    const std::uint32_t v = window_at(exp.limbs_, i * w, w);
    if (v != 0) mul(acc, acc, entry(v));
  }

  // Leave Montgomery form: acc * 1 * R^{-1}.
  std::fill_n(entry(0), k, Limb{0});
  entry(0)[0] = 1;
  mul(acc, acc, entry(0));
  BigUInt out;
  out.limbs_ = unpack_limbs(acc, k);
  out.trim();
  return out;
}

// ---------------------------------------------------------------------------
// Primality

namespace {

/// Primes below 2000, for trial division before Miller–Rabin.
const std::vector<std::uint32_t>& small_primes() {
  static const std::vector<std::uint32_t> primes = [] {
    std::vector<std::uint32_t> out;
    std::vector<bool> sieve(2000, true);
    for (std::uint32_t p = 2; p < 2000; ++p) {
      if (!sieve[p]) continue;
      out.push_back(p);
      for (std::uint32_t q = p * p; q < 2000; q += p) sieve[q] = false;
    }
    return out;
  }();
  return primes;
}

}  // namespace

bool is_probable_prime(const BigUInt& n, SecureRandom& rng, int rounds) {
  if (n < BigUInt(2)) return false;
  for (std::uint32_t p : small_primes()) {
    if (n == BigUInt(p)) return true;
    if (n.mod_u32(p) == 0) return false;
  }

  // Write n-1 = d * 2^r.
  const BigUInt n_minus_1 = n - BigUInt(1);
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  const Montgomery mont(n);
  const BigUInt n_minus_3 = n - BigUInt(3);
  for (int round = 0; round < rounds; ++round) {
    const BigUInt a = BigUInt::random_below(rng, n_minus_3) + BigUInt(2);
    BigUInt x = mont.pow(a, d);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 1; i < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigUInt generate_prime(SecureRandom& rng, std::size_t bits) {
  if (bits < 8) throw std::domain_error("generate_prime: need >= 8 bits");
  for (;;) {
    BigUInt candidate = BigUInt::random_with_bits(rng, bits);
    if (candidate.is_even()) candidate += BigUInt(1);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace p2pdrm::crypto
