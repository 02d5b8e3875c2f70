// Arbitrary-precision unsigned integers, from scratch, sized for RSA:
// schoolbook multiply, Knuth algorithm-D division, Montgomery modular
// exponentiation, extended-Euclid inverse. One limb width throughout:
// BigUInt stores 64-bit limbs with unsigned __int128 intermediates, and the
// Montgomery kernels, which are nearly all of an RSA private operation, read
// those limbs in place; on x86-64 CPUs with BMI2 and ADX they multiply and
// square with mulx and two carry chains, elsewhere with portable 128-bit
// products.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace p2pdrm::crypto {

class SecureRandom;
struct DivModResult;

class BigUInt {
 public:
  /// Zero.
  BigUInt() = default;
  BigUInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Big-endian byte-string decode (leading zeros allowed).
  static BigUInt from_bytes_be(util::BytesView bytes);
  /// Hex decode (no 0x prefix, case-insensitive). Throws on bad input.
  static BigUInt from_hex(std::string_view hex);
  /// Uniform random integer with exactly `bits` bits (top bit set).
  static BigUInt random_with_bits(SecureRandom& rng, std::size_t bits);
  /// Uniform random integer in [0, bound).
  static BigUInt random_below(SecureRandom& rng, const BigUInt& bound);

  /// Big-endian encoding, left-padded with zeros to at least min_len bytes.
  util::Bytes to_bytes_be(std::size_t min_len = 0) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit i (LSB = bit 0).
  bool bit(std::size_t i) const;
  /// Low 64 bits.
  std::uint64_t low_u64() const;

  friend bool operator==(const BigUInt& a, const BigUInt& b) = default;
  friend std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b);

  BigUInt operator+(const BigUInt& rhs) const;
  /// Subtraction; throws std::underflow_error if rhs > *this.
  BigUInt operator-(const BigUInt& rhs) const;
  BigUInt operator*(const BigUInt& rhs) const;
  BigUInt operator/(const BigUInt& rhs) const;
  BigUInt operator%(const BigUInt& rhs) const;
  BigUInt operator<<(std::size_t n) const;
  BigUInt operator>>(std::size_t n) const;

  BigUInt& operator+=(const BigUInt& rhs) { return *this = *this + rhs; }
  BigUInt& operator-=(const BigUInt& rhs) { return *this = *this - rhs; }

  /// Quotient and remainder in one pass. Throws std::domain_error on /0.
  static DivModResult divmod(const BigUInt& u, const BigUInt& v);

  /// Remainder modulo a 32-bit value (fast path for trial division).
  std::uint32_t mod_u32(std::uint32_t m) const;

  /// (base ^ exp) mod m. Uses Montgomery multiplication when m is odd,
  /// plain square-and-multiply with division otherwise. m must be >= 2.
  static BigUInt mod_pow(const BigUInt& base, const BigUInt& exp, const BigUInt& m);

  /// Greatest common divisor.
  static BigUInt gcd(BigUInt a, BigUInt b);

  /// Modular inverse of a mod m; throws std::domain_error if gcd(a,m) != 1.
  static BigUInt mod_inverse(const BigUInt& a, const BigUInt& m);

 private:
  void trim();
  static BigUInt add_impl(const BigUInt& a, const BigUInt& b);
  static BigUInt sub_impl(const BigUInt& a, const BigUInt& b);

  // Little-endian limbs, most significant limb last, no trailing zeros.
  std::vector<std::uint64_t> limbs_;

  friend class Montgomery;
};

struct DivModResult {
  BigUInt quotient;
  BigUInt remainder;
};

namespace detail {

/// Montgomery multiply kernels at a fixed width of K 64-bit limbs, compiled
/// for K = 4, 8 and 16 (256-, 512- and 1024-bit moduli): out = a * b *
/// R^{-1} mod n with R = 2^(64K), for a, b < n, n odd, and n_prime =
/// -n^{-1} mod 2^64. out may alias a or b. Montgomery::pow is the production
/// caller; both kernels give the same limbs for the same inputs.
using MontMulKernel = void (*)(std::uint64_t* out, const std::uint64_t* a,
                               const std::uint64_t* b, const std::uint64_t* n,
                               std::uint64_t n_prime);
/// Portable FIOS with 128-bit products.
template <std::size_t K>
void mont_mul_fios(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                   const std::uint64_t* n, std::uint64_t n_prime);

/// Montgomery squaring kernels, compiled for K = 8 and 16: out = a * a *
/// R^{-1} mod n for a < n, the same limbs as a multiply kernel gives for
/// (a, a); out may alias a. Row i multiplies a[i] by a[i] + 2 * a[i + 1 ..]
/// only, so each cross product a[i] * a[j] is taken once: K(K + 1)/2 + K^2
/// limb products against the multiply's 2K^2, 22 % fewer at 8 limbs.
using MontSqrKernel = void (*)(std::uint64_t* out, const std::uint64_t* a,
                               const std::uint64_t* n, std::uint64_t n_prime);
#if defined(__x86_64__)
/// The CPU has both BMI2 (mulx) and ADX (adcx, adox).
bool cpu_has_adx();
/// mulx with two carry chains (adcx, adox). Requires cpu_has_adx().
template <std::size_t K>
__attribute__((target("bmi2,adx"))) void mont_mul_adx(std::uint64_t* out,
                                                      const std::uint64_t* a,
                                                      const std::uint64_t* b,
                                                      const std::uint64_t* n,
                                                      std::uint64_t n_prime);
/// mulx with two carry chains, as mont_mul_adx, at K = 8 and 16 only.
/// Requires cpu_has_adx().
template <std::size_t K>
__attribute__((target("bmi2,adx"))) void mont_sqr_adx(std::uint64_t* out,
                                                      const std::uint64_t* a,
                                                      const std::uint64_t* n,
                                                      std::uint64_t n_prime);
#endif

}  // namespace detail

/// Montgomery arithmetic for a fixed odd modulus n. Operands are 64-bit
/// limbs. The context holds n, -n^{-1} mod 2^64 and R^2 mod n
/// (R = 2^(64k)); it is immutable once built, so one context serves any
/// number of threads. Building one costs a BigUInt division (for R^2),
/// about 1 us at 512 bits and 2 us at 1024: when every RSA operation built
/// its own, 11 per live_zap op, that was 4.6 % of the workload's CPU, so
/// RSA keys held across calls carry theirs (rsa.h). BigUInt::mod_pow still
/// builds one per call, and Miller–Rabin reuses one across its rounds.
/// At k = 4, 8 and 16 limbs (256-, 512- and 1024-bit moduli: the RSA halves
/// and public operations of 512- and 1024-bit keys) each multiply is one of
/// the detail:: kernels, picked once per process: mont_mul_adx on x86-64
/// CPUs with BMI2 and ADX, else mont_mul_fios. On those CPUs squarings at 8
/// and 16 limbs run mont_sqr_adx; every other squaring is a multiply of the
/// accumulator by itself. Every other width runs the FIOS multiply with k
/// read at run time. FIOS is one pass per limb with 128-bit products, the
/// product and reduction carry chains side by side in one inner loop.
/// Variable-time, every kernel included: this is a reproduction, not a
/// hardened library.
class Montgomery {
 public:
  /// mod must be odd and >= 3.
  explicit Montgomery(const BigUInt& mod);

  /// x * R mod n (Montgomery form) for any x. No division: x is folded in
  /// k-limb chunks from the top, one multiply by R^2 per chunk.
  BigUInt to_montgomery(const BigUInt& x) const;

  /// a * b * R^{-1} mod n for a < R and b < n; with b in Montgomery form
  /// this is a * b mod n. Throws std::domain_error on larger operands.
  BigUInt mul(const BigUInt& a, const BigUInt& b) const;

  /// (base ^ exp) mod n for any base, by sliding-window exponentiation over
  /// a table of odd powers. One allocation holds the table, the accumulator
  /// and a scratch operand; at a run-time width a second holds the
  /// multiply's scratch row.
  BigUInt pow(const BigUInt& base, const BigUInt& exp) const;

  /// Window width pow uses for an exponent of `exp_bits` bits: 1 (plain
  /// square-and-multiply, e.g. e = 65537), 4 or 5.
  static unsigned window_bits(std::size_t exp_bits);

 private:
  using Limb = std::uint64_t;

  /// pow for exp > 0 with k fixed at K limbs (multiplying and squaring with
  /// the kernels picked for K), or read from k_ when K = 0.
  template <std::size_t K>
  BigUInt pow_width(const BigUInt& base, const BigUInt& exp) const;
  static BigUInt from_limbs(const Limb* in, std::size_t k);

  BigUInt n_;              // k_ limbs, the top one nonzero
  std::size_t k_;
  Limb n_prime_;           // -n^{-1} mod 2^64
  std::vector<Limb> r2_;   // R^2 mod n in k_ limbs
};

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
bool is_probable_prime(const BigUInt& n, SecureRandom& rng, int rounds = 24);

/// Generate a random prime with exactly `bits` bits.
BigUInt generate_prime(SecureRandom& rng, std::size_t bits);

}  // namespace p2pdrm::crypto
