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
using Limb = std::uint64_t;
using Wide = unsigned __int128;
}  // namespace

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_bytes_be(util::BytesView bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // bytes[size-1-i] is the i-th least significant byte.
    const std::uint8_t b = bytes[bytes.size() - 1 - i];
    out.limbs_[i / 8] |= static_cast<Limb>(b) << (8 * (i % 8));
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
        static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
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
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigUInt::low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

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
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Wide sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  if (carry) out.limbs_.push_back(carry);
  return out;
}

BigUInt BigUInt::sub_impl(const BigUInt& a, const BigUInt& b) {
  if (a < b) throw std::underflow_error("BigUInt: negative subtraction result");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size());
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    Wide diff = static_cast<Wide>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    out.limbs_[i] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
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
    Limb carry = 0;
    const Limb ai = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      // At most (2^64 - 1)^2 + 2 (2^64 - 1) = 2^128 - 1.
      const Wide cur = static_cast<Wide>(ai) * rhs.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    out.limbs_[i + rhs.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator<<(std::size_t n) const {
  if (is_zero() || n == 0) return *this;
  const std::size_t limb_shift = n / 64;
  const std::size_t bit_shift = n % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator>>(std::size_t n) const {
  const std::size_t limb_shift = n / 64;
  if (limb_shift >= limbs_.size()) return BigUInt{};
  const std::size_t bit_shift = n % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
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
    const Limb d = v.limbs_[0];
    BigUInt q;
    q.limbs_.assign(u.limbs_.size(), 0);
    Limb rem = 0;
    for (std::size_t i = u.limbs_.size(); i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << 64) | u.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    q.trim();
    return {q, BigUInt(rem)};
  }

  // Knuth TAOCP vol. 2, algorithm D (adapted from Hacker's Delight divmnu),
  // on 64-bit digits. A shift by s = 0 must not become a shift by 64.
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size();
  const int s = std::countl_zero(v.limbs_[n - 1]);

  std::vector<Limb> vn(n);
  for (std::size_t i = n; i-- > 1;) {
    vn[i] = (v.limbs_[i] << s) | (s ? v.limbs_[i - 1] >> (64 - s) : 0);
  }
  vn[0] = v.limbs_[0] << s;

  std::vector<Limb> un(m + 1);
  un[m] = s ? u.limbs_[m - 1] >> (64 - s) : 0;
  for (std::size_t i = m; i-- > 1;) {
    un[i] = (u.limbs_[i] << s) | (s ? u.limbs_[i - 1] >> (64 - s) : 0);
  }
  un[0] = u.limbs_[0] << s;

  BigUInt q;
  q.limbs_.assign(m - n + 1, 0);

  constexpr Wide kBase = static_cast<Wide>(1) << 64;
  for (std::size_t j = m - n + 1; j-- > 0;) {
    const Wide top = (static_cast<Wide>(un[j + n]) << 64) | un[j + n - 1];
    Wide qhat = top / vn[n - 1];
    Wide rhat = top - qhat * vn[n - 1];
    // qhat < 2^64 and rhat < 2^64 wherever the product test is reached.
    while (qhat >= kBase || qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    auto digit = static_cast<Limb>(qhat);

    // Multiply and subtract.
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide p = static_cast<Wide>(digit) * vn[i] + carry;
      carry = static_cast<Limb>(p >> 64);
      const Wide t = static_cast<Wide>(un[i + j]) - borrow - static_cast<Limb>(p);
      un[i + j] = static_cast<Limb>(t);
      borrow = static_cast<Limb>(t >> 64) & 1;
    }
    // Within [-2^64, 2^64): negative exactly when its high half is set.
    const Wide t = static_cast<Wide>(un[j + n]) - borrow - carry;
    un[j + n] = static_cast<Limb>(t);

    if (static_cast<Limb>(t >> 64) != 0) {
      // The digit was one too large: add v back.
      --digit;
      Limb c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide sum = static_cast<Wide>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<Limb>(sum);
        c = static_cast<Limb>(sum >> 64);
      }
      un[j + n] += c;
    }
    q.limbs_[j] = digit;
  }

  BigUInt r;
  r.limbs_.assign(n, 0);
  for (std::size_t i = 0; i < n - 1; ++i) {
    r.limbs_[i] = (un[i] >> s) | (s ? un[i + 1] << (64 - s) : 0);
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
  // Each limb in two 32-bit steps, so that every dividend fits in 64 bits.
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | (limbs_[i] >> 32)) % m;
    rem = ((rem << 32) | (limbs_[i] & 0xffffffffu)) % m;
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

/// out = x * R mod n in k limbs, for any x, without division: Horner over
/// x's k-limb chunks from the top, out <- (out + chunk) * R^2 * R^{-1}. The
/// sum is below n + R; when it carries out of k limbs, subtracting n once
/// brings it below R, which is all a multiply needs of its first operand.
/// `chunk` is k limbs of scratch.
template <class Mul>
void fold_to_montgomery(Limb* out, Limb* chunk, const std::vector<Limb>& x, const Limb* n,
                        const Limb* r2, std::size_t k, Mul& mul) {
  std::size_t chunks = std::max<std::size_t>(1, (x.size() + k - 1) / k);
  std::fill_n(out, k, Limb{0});
  while (chunks-- > 0) {
    const std::size_t first = chunks * k;
    const std::size_t count = std::min(k, x.size() - first);
    std::copy_n(x.data() + first, count, chunk);
    std::fill_n(chunk + count, k - count, Limb{0});
    Limb carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const Wide sum = static_cast<Wide>(chunk[i]) + out[i] + carry;
      chunk[i] = static_cast<Limb>(sum);
      carry = static_cast<Limb>(sum >> 64);
    }
    if (carry != 0) {
      Limb borrow = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const Wide diff = static_cast<Wide>(chunk[i]) - n[i] - borrow;
        chunk[i] = static_cast<Limb>(diff);
        borrow = static_cast<Limb>(diff >> 64) & 1;
      }
    }
    mul(out, chunk, r2);
  }
}

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

/// The same for the squaring kernel: the limbs of its rows' multipliers
/// (see mont_sqr_adx) and n.
template <std::size_t K>
struct AdxSqrArgs {
  Limb e[K];
  Limb d[K];
  Limb n[K];
  Limb n_prime;
  Limb top;
  Limb top_bit;  // a's top bit
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

// One row with t in registers: an x * v pass (XPASS, with CF and OF cleared
// first) and a last limb, which KIN leaves in lo, added into tk; the carry
// limb above tk waits in the args' top. Then m = t0 * n' and t += m * n,
// which clears t0. The new top limb comes out in t0's register, whose limb
// the row has dropped, so the caller renames t down by one limb. A multiply
// row's XPASS is PASS over b, and its last limb 0.
#define P2PDRM_ADX_KIN0 "mov $0, %k[lo]\n\t" /* mov leaves the flags alone */
#define P2PDRM_ADX_ROW(XPASS, PASS, k, KIN)                            \
  "xor %k[lo], %k[lo]\n\t" /* clear CF and OF */                       \
  XPASS                                                                \
  KIN                                                                  \
  "adcx %[lo], %[t" #k "]\n\t"                                         \
  "mov $0, %k[lo]\n\t"                                                 \
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
  P2PDRM_ADX_MTAIL16(P2PDRM_ADX_KIN0)
// r0 holds t_16 and r1 the limb above: add the last limb (KIN) and the
// carries, and store.
#define P2PDRM_ADX_MTAIL16(KIN)                                                \
  KIN                                                                          \
  "adcx %[lo], %[r0]\n\t"                                                      \
  "mov $0, %k[lo]\n\t"                                                         \
  "adcx %[lo], %[r1]\n\t"                                                      \
  "adox %[lo], %[r1]\n\t"                                                      \
  "mov %[r0], 8*16(%[w])\n\t"                                                  \
  "mov %[r1], 8*17(%[w])\n\t"
#define P2PDRM_ADX_MNPASS16                   \
  "mov (%[w]), %[x]\n\t"                      \
  "imul %c[np](%[s]), %[x]\n\t"               \
  P2PDRM_ADX_MPASS16("%c[n]")
#define P2PDRM_ADX_MROW16 P2PDRM_ADX_MPASS16("%c[b]") P2PDRM_ADX_MNPASS16

// Squaring rows (see mont_sqr_adx): row i adds x = a[i] times C_i, whose
// limb j is a[i] at j = i (x itself, in rdx), e[j] = a[j] << 1 at j = i + 1
// and d[j] = (a[j] << 1) | (a[j - 1] >> 63) beyond, so its pass starts at
// limb i: the steps below start a pass at a given limb, reading offsets into
// AdxSqrArgs. C_i's limb k, a's top bit, puts x or 0 at tk: the KIN mulx by
// AdxSqrArgs::top_bit, which leaves the flags alone.
#define P2PDRM_SQR_KIN "mulx %c[tb](%[s]), %[lo], %[hi]\n\t"
#define P2PDRM_SQR_STEP0(j, j1)          \
  "mulx %[x], %[lo], %[hi]\n\t"          \
  "adcx %[lo], %[t" #j "]\n\t"           \
  "adox %[hi], %[t" #j1 "]\n\t"
#define P2PDRM_SQR_MSTEP0(j, c, y)        \
  "mulx %[x], %[lo], %[hi]\n\t"          \
  "adcx %[lo], %[" #c "]\n\t"            \
  "adox %[hi], %[" #y "]\n\t"            \
  "mov %[" #c "], 8*" #j "(%[w])\n\t"    \
  "mov 8*" #j "+16(%[w]), %[" #c "]\n\t"
#define P2PDRM_SQR_D8_8
#define P2PDRM_SQR_D8_7 P2PDRM_ADX_STEP("%c[d]", 7, 8)
#define P2PDRM_SQR_D8_6 P2PDRM_ADX_STEP("%c[d]", 6, 7) P2PDRM_SQR_D8_7
#define P2PDRM_SQR_D8_5 P2PDRM_ADX_STEP("%c[d]", 5, 6) P2PDRM_SQR_D8_6
#define P2PDRM_SQR_D8_4 P2PDRM_ADX_STEP("%c[d]", 4, 5) P2PDRM_SQR_D8_5
#define P2PDRM_SQR_D8_3 P2PDRM_ADX_STEP("%c[d]", 3, 4) P2PDRM_SQR_D8_4
#define P2PDRM_SQR_D8_2 P2PDRM_ADX_STEP("%c[d]", 2, 3) P2PDRM_SQR_D8_3
#define P2PDRM_SQR_D16_16
#define P2PDRM_SQR_D16_15 P2PDRM_ADX_MSTEP("%c[d]", 15, r1, r0)
#define P2PDRM_SQR_D16_14 P2PDRM_ADX_MSTEP("%c[d]", 14, r0, r1) P2PDRM_SQR_D16_15
#define P2PDRM_SQR_D16_13 P2PDRM_ADX_MSTEP("%c[d]", 13, r1, r0) P2PDRM_SQR_D16_14
#define P2PDRM_SQR_D16_12 P2PDRM_ADX_MSTEP("%c[d]", 12, r0, r1) P2PDRM_SQR_D16_13
#define P2PDRM_SQR_D16_11 P2PDRM_ADX_MSTEP("%c[d]", 11, r1, r0) P2PDRM_SQR_D16_12
#define P2PDRM_SQR_D16_10 P2PDRM_ADX_MSTEP("%c[d]", 10, r0, r1) P2PDRM_SQR_D16_11
#define P2PDRM_SQR_D16_9 P2PDRM_ADX_MSTEP("%c[d]", 9, r1, r0) P2PDRM_SQR_D16_10
#define P2PDRM_SQR_D16_8 P2PDRM_ADX_MSTEP("%c[d]", 8, r0, r1) P2PDRM_SQR_D16_9
#define P2PDRM_SQR_D16_7 P2PDRM_ADX_MSTEP("%c[d]", 7, r1, r0) P2PDRM_SQR_D16_8
#define P2PDRM_SQR_D16_6 P2PDRM_ADX_MSTEP("%c[d]", 6, r0, r1) P2PDRM_SQR_D16_7
#define P2PDRM_SQR_D16_5 P2PDRM_ADX_MSTEP("%c[d]", 5, r1, r0) P2PDRM_SQR_D16_6
#define P2PDRM_SQR_D16_4 P2PDRM_ADX_MSTEP("%c[d]", 4, r0, r1) P2PDRM_SQR_D16_5
#define P2PDRM_SQR_D16_3 P2PDRM_ADX_MSTEP("%c[d]", 3, r1, r0) P2PDRM_SQR_D16_4
#define P2PDRM_SQR_D16_2 P2PDRM_ADX_MSTEP("%c[d]", 2, r0, r1) P2PDRM_SQR_D16_3
// The x * C_i pass of row i < k - 1 in registers (D is the width's chain of
// d steps), and of the last row, whose C_i is a[k - 1] alone.
#define P2PDRM_SQR_XPASS(D, i, i1, i2) \
  P2PDRM_SQR_STEP0(i, i1) P2PDRM_ADX_STEP("%c[e]", i1, i2) D##_##i2
#define P2PDRM_SQR_XLAST(i, i1) P2PDRM_SQR_STEP0(i, i1)
// The same in memory at 16 limbs: ri holds t_i (r0 when i is even), ri1 the
// limb above.
#define P2PDRM_SQR_MXPASS16(i, i1, i2, ri, ri1)                                \
  "xor %k[lo], %k[lo]\n\t"                                                     \
  "mov 8*" #i "(%[w]), %[" #ri "]\n\t"                                         \
  "mov 8*" #i1 "(%[w]), %[" #ri1 "]\n\t"                                       \
  P2PDRM_SQR_MSTEP0(i, ri, ri1) P2PDRM_ADX_MSTEP("%c[e]", i1, ri1, ri)          \
  P2PDRM_SQR_D16_##i2 P2PDRM_ADX_MTAIL16(P2PDRM_SQR_KIN)
#define P2PDRM_SQR_MXLAST16                          \
  "xor %k[lo], %k[lo]\n\t"                           \
  "mov 8*15(%[w]), %[r1]\n\t"                        \
  "mov 8*16(%[w]), %[r0]\n\t"                        \
  P2PDRM_SQR_MSTEP0(15, r1, r0) P2PDRM_ADX_MTAIL16(P2PDRM_ADX_KIN0)

#define P2PDRM_ADX_ARGS(Args)                                             \
  [s] "r"(&args), [n] "i"(offsetof(Args, n)),                             \
      [np] "i"(offsetof(Args, n_prime)), [top] "i"(offsetof(Args, top))
#define P2PDRM_ADX_INPUTS(K) P2PDRM_ADX_ARGS(AdxArgs<K>), [b] "i"(offsetof(AdxArgs<K>, b))
#define P2PDRM_SQR_INPUTS(K)                                                   \
  P2PDRM_ADX_ARGS(AdxSqrArgs<K>), [e] "i"(offsetof(AdxSqrArgs<K>, e)),         \
      [d] "i"(offsetof(AdxSqrArgs<K>, d)), [tb] "i"(offsetof(AdxSqrArgs<K>, top_bit))

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
    asm(P2PDRM_ADX_ROW(P2PDRM_ADX_PASS4("%c[b]"), P2PDRM_ADX_PASS4, 4, P2PDRM_ADX_KIN0)
        : [t0] "+r"(t[at(0)]), [t1] "+r"(t[at(1)]), [t2] "+r"(t[at(2)]),
          [t3] "+r"(t[at(3)]), [t4] "+r"(t[at(4)]), [lo] "=&r"(lo), [hi] "=&r"(hi),
          [x] "+d"(x)
        : P2PDRM_ADX_INPUTS(K)
        : "cc", "memory");
  } else {
    asm(P2PDRM_ADX_ROW(P2PDRM_ADX_PASS8("%c[b]"), P2PDRM_ADX_PASS8, 8, P2PDRM_ADX_KIN0)
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

/// Squaring row I of the 8-limb register kernel, on adx_row's renamed limbs.
template <std::size_t K, std::size_t I>
__attribute__((always_inline)) inline void adx_sqr_row(std::array<Limb, K + 1>& t, Limb x,
                                                       const AdxSqrArgs<K>& args) {
  constexpr auto at = [](std::size_t j) { return (I + 1 + j) % (K + 1); };
  Limb lo = 0, hi = 0;
#define P2PDRM_SQR_ROW8(KIN, XPASS)                                                  \
  asm(P2PDRM_ADX_ROW(XPASS, P2PDRM_ADX_PASS8, 8, KIN)                                \
      : [t0] "+r"(t[at(0)]), [t1] "+r"(t[at(1)]), [t2] "+r"(t[at(2)]),               \
        [t3] "+r"(t[at(3)]), [t4] "+r"(t[at(4)]), [t5] "+r"(t[at(5)]),               \
        [t6] "+r"(t[at(6)]), [t7] "+r"(t[at(7)]), [t8] "+r"(t[at(8)]),               \
        [lo] "=&r"(lo), [hi] "=&r"(hi), [x] "+d"(x)                                  \
      : P2PDRM_SQR_INPUTS(K)                                                         \
      : "cc", "memory")
  static_assert(K == 8);
  if constexpr (I == 0) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 0, 1, 2));
  else if constexpr (I == 1) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 1, 2, 3));
  else if constexpr (I == 2) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 2, 3, 4));
  else if constexpr (I == 3) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 3, 4, 5));
  else if constexpr (I == 4) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 4, 5, 6));
  else if constexpr (I == 5) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 5, 6, 7));
  else if constexpr (I == 6) P2PDRM_SQR_ROW8(P2PDRM_SQR_KIN, P2PDRM_SQR_XPASS(P2PDRM_SQR_D8, 6, 7, 8));
  else P2PDRM_SQR_ROW8(P2PDRM_ADX_KIN0, P2PDRM_SQR_XLAST(7, 8));
#undef P2PDRM_SQR_ROW8
}

template <std::size_t K, std::size_t... I>
__attribute__((always_inline)) inline void adx_sqr_rows(std::array<Limb, K + 1>& t, const Limb* a,
                                                        const AdxSqrArgs<K>& args,
                                                        std::index_sequence<I...>) {
  (adx_sqr_row<K, I>(t, a[I], args), ...);
}

/// Squaring row I of the 16-limb kernel, on t[I .. I + 17] in memory as in
/// mont_mul_adx<16>.
template <std::size_t I>
__attribute__((always_inline)) inline void adx_sqr_mrow16(Limb* w, Limb x,
                                                          const AdxSqrArgs<16>& args) {
  Limb lo = 0, hi = 0, r0 = 0, r1 = 0;
  // volatile: the row's results are the stores through w.
#define P2PDRM_SQR_MROW16(XPASS)                                                   \
  asm volatile(XPASS P2PDRM_ADX_MNPASS16                                           \
      : [lo] "=&r"(lo), [hi] "=&r"(hi), [r0] "=&r"(r0), [r1] "=&r"(r1), [x] "+d"(x) \
      : P2PDRM_SQR_INPUTS(16), [w] "r"(w)                                          \
      : "cc", "memory")
  if constexpr (I == 0) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(0, 1, 2, r0, r1));
  else if constexpr (I == 1) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(1, 2, 3, r1, r0));
  else if constexpr (I == 2) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(2, 3, 4, r0, r1));
  else if constexpr (I == 3) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(3, 4, 5, r1, r0));
  else if constexpr (I == 4) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(4, 5, 6, r0, r1));
  else if constexpr (I == 5) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(5, 6, 7, r1, r0));
  else if constexpr (I == 6) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(6, 7, 8, r0, r1));
  else if constexpr (I == 7) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(7, 8, 9, r1, r0));
  else if constexpr (I == 8) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(8, 9, 10, r0, r1));
  else if constexpr (I == 9) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(9, 10, 11, r1, r0));
  else if constexpr (I == 10) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(10, 11, 12, r0, r1));
  else if constexpr (I == 11) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(11, 12, 13, r1, r0));
  else if constexpr (I == 12) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(12, 13, 14, r0, r1));
  else if constexpr (I == 13) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(13, 14, 15, r1, r0));
  else if constexpr (I == 14) P2PDRM_SQR_MROW16(P2PDRM_SQR_MXPASS16(14, 15, 16, r0, r1));
  else P2PDRM_SQR_MROW16(P2PDRM_SQR_MXLAST16);
#undef P2PDRM_SQR_MROW16
}

template <std::size_t... I>
__attribute__((always_inline)) inline void adx_sqr_mrows16(Limb* t, const Limb* a,
                                                           const AdxSqrArgs<16>& args,
                                                           std::index_sequence<I...>) {
  (adx_sqr_mrow16<I>(t + I, a[I], args), ...);
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

// Squaring by rows as in the multiply. a^2 = sum over i of a[i] * C_i *
// 2^(128i) with C_i = a[i] + 2 * (a[i + 1 ..] as one number) * 2^64, so row i
// adds x = a[i] times C_i from limb i, K - i products where a multiply row
// has K. C_i's limbs from i + 2 are those of 2a, (a[j] << 1) | (a[j - 1] >>
// 63); limb i + 1 is a[i + 1] << 1 alone, since a[i]'s top bit is no part of
// 2 * a[i + 1 ..]; limb K, for i < K - 1, is a's top bit, so its product is
// a[i] or 0. The accumulator stays below 3n between rows, in K + 1 limbs.
template <std::size_t K>
__attribute__((target("bmi2,adx"))) void mont_sqr_adx(Limb* out, const Limb* a,
                                                      const Limb* n, Limb n_prime) {
  static_assert(K == 8 || K == 16);
  AdxSqrArgs<K> args;
  for (std::size_t j = 0; j < K; ++j) {
    args.e[j] = a[j] << 1;
    args.d[j] = (a[j] << 1) | (j > 0 ? a[j - 1] >> 63 : 0);
  }
  std::copy_n(n, K, args.n);
  args.n_prime = n_prime;
  args.top_bit = a[K - 1] >> 63;
  if constexpr (K == 16) {
    std::array<Limb, 2 * K + 1> t{};
    adx_sqr_mrows16(t.data(), a, args, std::make_index_sequence<K>{});
    subtract_if_ge(out, t.data() + K, n, K);
  } else {
    std::array<Limb, K + 1> t{};
    adx_sqr_rows(t, a, args, std::make_index_sequence<K>{});
    // A copy, so that t's own address is never taken and t stays in registers.
    const std::array<Limb, K + 1> result = t;
    subtract_if_ge(out, result.data(), n, K);
  }
}

template void mont_sqr_adx<8>(Limb*, const Limb*, const Limb*, Limb);
template void mont_sqr_adx<16>(Limb*, const Limb*, const Limb*, Limb);

#undef P2PDRM_ADX_STEP
#undef P2PDRM_ADX_PASS4
#undef P2PDRM_ADX_PASS8
#undef P2PDRM_ADX_ROW
#undef P2PDRM_ADX_MSTEP
#undef P2PDRM_ADX_MPASS16
#undef P2PDRM_ADX_MNPASS16
#undef P2PDRM_ADX_MROW16
#undef P2PDRM_ADX_INPUTS
#undef P2PDRM_SQR_D8_8
#undef P2PDRM_SQR_D8_7
#undef P2PDRM_SQR_D8_6
#undef P2PDRM_SQR_D8_5
#undef P2PDRM_SQR_D8_4
#undef P2PDRM_SQR_D8_3
#undef P2PDRM_SQR_D8_2
#undef P2PDRM_SQR_D16_16
#undef P2PDRM_SQR_D16_15
#undef P2PDRM_SQR_D16_14
#undef P2PDRM_SQR_D16_13
#undef P2PDRM_SQR_D16_12
#undef P2PDRM_SQR_D16_11
#undef P2PDRM_SQR_D16_10
#undef P2PDRM_SQR_D16_9
#undef P2PDRM_SQR_D16_8
#undef P2PDRM_SQR_D16_7
#undef P2PDRM_SQR_D16_6
#undef P2PDRM_SQR_D16_5
#undef P2PDRM_SQR_D16_4
#undef P2PDRM_SQR_D16_3
#undef P2PDRM_SQR_D16_2
#undef P2PDRM_SQR_XPASS
#undef P2PDRM_SQR_KIN
#undef P2PDRM_SQR_STEP0
#undef P2PDRM_SQR_MSTEP0
#undef P2PDRM_ADX_KIN0
#undef P2PDRM_SQR_XLAST
#undef P2PDRM_SQR_MXPASS16
#undef P2PDRM_SQR_MXLAST16
#undef P2PDRM_ADX_MTAIL16
#undef P2PDRM_ADX_ARGS
#undef P2PDRM_SQR_INPUTS
#endif

}  // namespace detail

namespace {

/// The kernels for width K, picked on first use.
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

/// The squaring kernel for width K, or null where pow squares through the
/// multiply: at 4 limbs, where a squaring kernel measured no faster, and on
/// CPUs without BMI2/ADX.
template <std::size_t K>
detail::MontSqrKernel sqr_kernel_for_width() {
#if defined(__x86_64__)
  if constexpr (K == 8 || K == 16) {
    static const detail::MontSqrKernel kernel =
        detail::cpu_has_adx() ? &detail::mont_sqr_adx<K> : nullptr;
    return kernel;
  }
#endif
  return nullptr;
}

}  // namespace

BigUInt Montgomery::from_limbs(const Limb* in, std::size_t k) {
  BigUInt out;
  out.limbs_.assign(in, in + k);
  out.trim();
  return out;
}

Montgomery::Montgomery(const BigUInt& mod) : n_(mod), k_(mod.limbs_.size()) {
  if (mod.is_even() || mod < BigUInt(3)) {
    throw std::domain_error("Montgomery: modulus must be odd and >= 3");
  }
  // n' = -n^{-1} mod 2^64 by Newton iteration: 1 is n's inverse to one bit,
  // and each step doubles the correct bits.
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n_.limbs_[0] * inv;
  n_prime_ = ~inv + 1;  // == -inv mod 2^64

  // R^2 mod n with R = 2^(64k).
  r2_ = ((BigUInt(1) << (128 * k_)) % n_).limbs_;
  r2_.resize(k_);
}

BigUInt Montgomery::to_montgomery(const BigUInt& x) const {
  std::vector<Limb> buf(2 * k_);
  Fios<0> mul(n_.limbs_.data(), n_prime_, k_);
  fold_to_montgomery(buf.data(), buf.data() + k_, x.limbs_, n_.limbs_.data(), r2_.data(), k_,
                     mul);
  return from_limbs(buf.data(), k_);
}

BigUInt Montgomery::mul(const BigUInt& a, const BigUInt& b) const {
  if (a.limbs_.size() > k_ || b >= n_) {
    throw std::domain_error("Montgomery::mul: operand out of range");
  }
  std::vector<Limb> buf(2 * k_);
  std::copy(a.limbs_.begin(), a.limbs_.end(), buf.data());
  std::copy(b.limbs_.begin(), b.limbs_.end(), buf.data() + k_);
  Fios<0>(n_.limbs_.data(), n_prime_, k_)(buf.data(), buf.data(), buf.data() + k_);
  return from_limbs(buf.data(), k_);
}

unsigned Montgomery::window_bits(std::size_t exp_bits) {
  // Multiplies besides the squarings for an L-bit exponent: L / 2 at w = 1;
  // 2^(w-1) to build the odd powers plus about L / (w + 1) in the scan
  // otherwise. w = 4 beats w = 1 from about 27 bits and w = 5 beats w = 4
  // from about 240; these cut-overs, set for fixed windows, are within one
  // multiply of that optimum at 256 and 512 bits (the RSA-512 and RSA-1024
  // halves) and exact at e = 65537.
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
  const Limb* n = n_.limbs_.data();
  auto mul = [&] {
    if constexpr (K == 0) {
      return Fios<0>(n, n_prime_, k_);
    } else {
      return [kernel = kernel_for_width<K>(), n, n_prime = n_prime_](
                 Limb* out, const Limb* a, const Limb* b) { kernel(out, a, b, n, n_prime); };
    }
  }();
  auto sqr = [&mul, kernel = sqr_kernel_for_width<K>(), n, n_prime = n_prime_](Limb* x) {
    if (kernel != nullptr) {
      kernel(x, x, n, n_prime);
    } else {
      mul(x, x, x);
    }
  };
  const std::size_t bits = exp.bit_length();
  const unsigned w = window_bits(bits);
  const std::size_t odd_powers = std::size_t{1} << (w - 1);

  // The accumulator, a scratch operand, then the table: entry v (v odd)
  // holds base^v * R mod n.
  std::vector<Limb> buf((odd_powers + 2) * k);
  Limb* acc = buf.data();
  Limb* scratch = acc + k;
  auto entry = [table = scratch + k, k](std::uint32_t v) { return table + (v / 2) * k; };

  fold_to_montgomery(entry(1), scratch, base.limbs_, n, r2_.data(), k, mul);
  if (odd_powers > 1) {
    std::copy_n(entry(1), k, scratch);
    sqr(scratch);
    for (std::uint32_t v = 3; v < 2 * odd_powers; v += 2) mul(entry(v), entry(v - 2), scratch);
  }

  // Sliding windows from the top: a zero bit is one squaring; a window is
  // at most w bits that start and end with a one, so its value is odd. The
  // first window holds exp's top bit and seeds the accumulator.
  bool seeded = false;
  for (std::size_t i = bits; i-- > 0;) {
    if (!exp.bit(i)) {
      sqr(acc);
      continue;
    }
    std::size_t low = i + 1 >= w ? i + 1 - w : 0;
    while (!exp.bit(low)) ++low;
    const auto width = static_cast<unsigned>(i - low + 1);
    std::uint32_t v = 0;
    for (std::size_t j = i + 1; j-- > low;) v = (v << 1) | (exp.bit(j) ? 1u : 0u);
    if (seeded) {
      for (unsigned s = 0; s < width; ++s) sqr(acc);
      mul(acc, acc, entry(v));
    } else {
      std::copy_n(entry(v), k, acc);
      seeded = true;
    }
    i = low;
  }

  // Leave Montgomery form: acc * 1 * R^{-1}.
  std::fill_n(scratch, k, Limb{0});
  scratch[0] = 1;
  mul(acc, acc, scratch);
  return from_limbs(acc, k);
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
