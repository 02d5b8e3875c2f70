#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/chacha20.h"

namespace p2pdrm::crypto {
namespace {

TEST(BigUIntTest, ZeroBasics) {
  const BigUInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_even());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_EQ(zero.low_u64(), 0u);
}

TEST(BigUIntTest, U64Construction) {
  const BigUInt v(0x0123456789abcdefull);
  EXPECT_EQ(v.low_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(v.to_hex(), "123456789abcdef");
  EXPECT_EQ(v.bit_length(), 57u);
  EXPECT_TRUE(v.is_odd());
  // At 63, 64 and 65 bits, on either side of the 64-bit limb boundary.
  EXPECT_EQ(BigUInt::from_hex("7fffffffffffffff").low_u64(), 0x7fffffffffffffffull);
  EXPECT_EQ(BigUInt(~0ull).low_u64(), ~0ull);
  EXPECT_EQ(BigUInt(~0ull).to_hex(), "ffffffffffffffff");
  EXPECT_EQ(BigUInt::from_hex("1fedcba9876543210").low_u64(), 0xfedcba9876543210ull);
  EXPECT_EQ(BigUInt::from_hex("10000000000000000").low_u64(), 0u);
}

TEST(BigUIntTest, BytesRoundTrip) {
  const util::Bytes raw = util::from_hex("00ffee010203");
  const BigUInt v = BigUInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_hex(), "ffee010203");
  EXPECT_EQ(util::to_hex(v.to_bytes_be(6)), "00ffee010203");
  EXPECT_EQ(util::to_hex(v.to_bytes_be()), "ffee010203");
  // 7, 8 and 9 bytes: one short of a limb, one limb, one byte into the next.
  for (const char* hex : {"81828384858687", "8182838485868788", "818283848586878889"}) {
    const util::Bytes bytes = util::from_hex(hex);
    const BigUInt w = BigUInt::from_bytes_be(bytes);
    EXPECT_EQ(w.to_hex(), hex);
    EXPECT_EQ(w.bit_length(), 8 * bytes.size());
    EXPECT_EQ(w.to_bytes_be(), bytes);
    EXPECT_EQ(util::to_hex(w.to_bytes_be(bytes.size() + 1)), std::string("00") + hex);
    util::Bytes padded(2, 0);
    padded.insert(padded.end(), bytes.begin(), bytes.end());
    EXPECT_EQ(BigUInt::from_bytes_be(padded), w);
  }
}

TEST(BigUIntTest, HexRoundTrip) {
  const BigUInt v = BigUInt::from_hex("deadbeefcafebabe0123456789");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789");
  // Odd-length hex is padded.
  EXPECT_EQ(BigUInt::from_hex("abc").to_hex(), "abc");
}

TEST(BigUIntTest, Comparison) {
  EXPECT_LT(BigUInt(1), BigUInt(2));
  EXPECT_GT(BigUInt::from_hex("100000000"), BigUInt(0xffffffffull));
  EXPECT_EQ(BigUInt(5), BigUInt(5));
  EXPECT_LT(BigUInt(), BigUInt(1));
}

TEST(BigUIntTest, AdditionWithCarryChain) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffff");
  const BigUInt one(1);
  EXPECT_EQ((a + one).to_hex(), "1000000000000000000000000");
}

TEST(BigUIntTest, SubtractionWithBorrow) {
  const BigUInt a = BigUInt::from_hex("1000000000000000000000000");
  EXPECT_EQ((a - BigUInt(1)).to_hex(), "ffffffffffffffffffffffff");
  EXPECT_EQ((a - a).to_hex(), "0");
}

TEST(BigUIntTest, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt(1) - BigUInt(2), std::underflow_error);
}

TEST(BigUIntTest, Multiplication) {
  const BigUInt a = BigUInt::from_hex("123456789abcdef0");
  const BigUInt b = BigUInt::from_hex("fedcba9876543210");
  EXPECT_EQ((a * b).to_hex(), "121fa00ad77d7422236d88fe5618cf00");
  EXPECT_TRUE((a * BigUInt()).is_zero());
  EXPECT_EQ((a * BigUInt(1)), a);
}

TEST(BigUIntTest, Shifts) {
  const BigUInt v = BigUInt::from_hex("1234");
  EXPECT_EQ((v << 4).to_hex(), "12340");
  EXPECT_EQ((v << 32).to_hex(), "123400000000");
  EXPECT_EQ((v >> 4).to_hex(), "123");
  EXPECT_EQ((v >> 16).to_hex(), "0");
  EXPECT_EQ((v << 0), v);
  EXPECT_EQ((v >> 0), v);
  EXPECT_EQ(((v << 100) >> 100), v);
  // Shifts by 63, 64 and 65 bits: within a limb, by a whole limb, and past one.
  const BigUInt w = BigUInt::from_hex("fedcba9876543210f");
  EXPECT_EQ((w << 63).to_hex(), "7f6e5d4c3b2a190878000000000000000");
  EXPECT_EQ((w << 64).to_hex(), "fedcba9876543210f0000000000000000");
  EXPECT_EQ((w << 65).to_hex(), "1fdb97530eca86421e0000000000000000");
  const BigUInt x = BigUInt::from_hex("0123456789abcdeffedcba9876543210");
  EXPECT_EQ((x >> 63).to_hex(), "2468acf13579bdf");
  EXPECT_EQ((x >> 64).to_hex(), "123456789abcdef");
  EXPECT_EQ((x >> 65).to_hex(), "91a2b3c4d5e6f7");
  for (const std::size_t n : {63u, 64u, 65u}) {
    EXPECT_EQ(((x << n) >> n), x) << n;
    EXPECT_EQ((BigUInt(1) << n).bit_length(), n + 1) << n;
    EXPECT_EQ((BigUInt(1) << n) >> n, BigUInt(1)) << n;
  }
}

TEST(BigUIntTest, BitAccess) {
  const BigUInt v = BigUInt::from_hex("5");  // 101
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(2));
  EXPECT_FALSE(v.bit(100));
  // Bits 62-66 of 2^63 + 2^64 + 2^66, across the limb boundary.
  const BigUInt w = BigUInt::from_hex("58000000000000000");
  EXPECT_FALSE(w.bit(62));
  EXPECT_TRUE(w.bit(63));
  EXPECT_TRUE(w.bit(64));
  EXPECT_FALSE(w.bit(65));
  EXPECT_TRUE(w.bit(66));
  EXPECT_FALSE(w.bit(67));
  EXPECT_EQ(w.bit_length(), 67u);
  EXPECT_EQ(BigUInt::from_hex("7fffffffffffffff").bit_length(), 63u);
  EXPECT_EQ(BigUInt::from_hex("ffffffffffffffff").bit_length(), 64u);
  EXPECT_EQ(BigUInt::from_hex("10000000000000000").bit_length(), 65u);
}

TEST(BigUIntTest, DivisionBySmall) {
  const BigUInt a = BigUInt::from_hex("123456789abcdef0123456789abcdef0");
  const auto dm = BigUInt::divmod(a, BigUInt(7));
  EXPECT_EQ(dm.quotient * BigUInt(7) + dm.remainder, a);
  EXPECT_LT(dm.remainder, BigUInt(7));
}

TEST(BigUIntTest, DivisionMultiLimb) {
  const BigUInt u = BigUInt::from_hex(
      "ab54a98ceb1f0ad2ab54a98ceb1f0ad2ab54a98ceb1f0ad2");
  const BigUInt v = BigUInt::from_hex("123456789abcdef0fedcba98");
  const auto dm = BigUInt::divmod(u, v);
  EXPECT_EQ(dm.quotient * v + dm.remainder, u);
  EXPECT_LT(dm.remainder, v);
}

TEST(BigUIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt(1) / BigUInt(), std::domain_error);
  EXPECT_THROW(BigUInt(1) % BigUInt(), std::domain_error);
}

TEST(BigUIntTest, DivisionSmallerDividend) {
  const auto dm = BigUInt::divmod(BigUInt(5), BigUInt(100));
  EXPECT_TRUE(dm.quotient.is_zero());
  EXPECT_EQ(dm.remainder, BigUInt(5));
}

TEST(BigUIntTest, ModU32) {
  const BigUInt a = BigUInt::from_hex("123456789abcdef0123456789abcdef0");
  EXPECT_EQ(a.mod_u32(97), (a % BigUInt(97)).low_u64());
  EXPECT_EQ(BigUInt().mod_u32(5), 0u);
  EXPECT_THROW(a.mod_u32(0), std::domain_error);
  // Random widths from 1 to 17 limbs, against the division's remainder.
  SecureRandom rng(64);
  for (std::size_t limbs = 1; limbs <= 17; ++limbs) {
    const BigUInt x = BigUInt::random_with_bits(rng, 64 * limbs - rng.uniform(64));
    for (const std::uint32_t m : {3u, 1999u, 65537u, 0x80000001u, 0xfffffffbu, 0xffffffffu}) {
      EXPECT_EQ(x.mod_u32(m), (x % BigUInt(m)).low_u64()) << limbs << " limbs mod " << m;
    }
  }
}

// Property sweep: q*v + r == u and r < v for deterministic pseudo-random
// operands of many widths (this is the test that catches Knuth-D edge cases).
class DivModPropertyTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DivModPropertyTest, Reconstructs) {
  const auto [u_bits, v_bits] = GetParam();
  SecureRandom rng(static_cast<std::uint64_t>(u_bits * 1000 + v_bits));
  for (int iter = 0; iter < 25; ++iter) {
    const BigUInt u = BigUInt::random_with_bits(rng, static_cast<std::size_t>(u_bits));
    const BigUInt v = BigUInt::random_with_bits(rng, static_cast<std::size_t>(v_bits));
    const auto dm = BigUInt::divmod(u, v);
    ASSERT_EQ(dm.quotient * v + dm.remainder, u)
        << "u=" << u.to_hex() << " v=" << v.to_hex();
    ASSERT_LT(dm.remainder, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DivModPropertyTest,
    ::testing::Values(std::pair{64, 32}, std::pair{64, 64}, std::pair{128, 64},
                      std::pair{256, 128}, std::pair{256, 255},
                      std::pair{512, 256}, std::pair{512, 33},
                      std::pair{1024, 512}, std::pair{1024, 1023},
                      std::pair{96, 65}, std::pair{160, 96}, std::pair{128, 65},
                      std::pair{129, 64}, std::pair{192, 128}));

// Algorithm-D "add back" step is rare; force coverage with a known trigger
// pattern (Hacker's Delight test case family).
TEST(BigUIntTest, DivisionAddBackCase) {
  const BigUInt u = BigUInt::from_hex("7fffffff800000010000000000000000");
  const BigUInt v = BigUInt::from_hex("800000008000000200000005");
  const auto dm = BigUInt::divmod(u, v);
  EXPECT_EQ(dm.quotient * v + dm.remainder, u);
  EXPECT_LT(dm.remainder, v);
}

// The same pattern at 64-bit digits, whose add-back the operands above no
// longer reach; and a pair whose first quotient-digit estimate exits its
// correction loop early, when rhat reaches the digit base.
TEST(BigUIntTest, DivisionAddBackAndEarlyExitAt64BitDigits) {
  struct Case {
    const char* u;
    const char* v;
    const char* q;
    const char* r;
  };
  const Case cases[] = {
      {"7fffffffffffffff800000000000000100000000000000000000000000000000",
       "800000000000000080000000000000020000000000000005", "fffffffffffffffd",
       "80000000000000008000000000000001000000000000000f"},
      {"80000000000000018000000000000000", "1ffffffffffffffff", "4000000000000000",
       "1c000000000000000"},
  };
  for (const Case& c : cases) {
    const auto dm = BigUInt::divmod(BigUInt::from_hex(c.u), BigUInt::from_hex(c.v));
    EXPECT_EQ(dm.quotient.to_hex(), c.q) << c.u;
    EXPECT_EQ(dm.remainder.to_hex(), c.r) << c.u;
  }
}

TEST(BigUIntTest, ModPowSmallNumbers) {
  // 3^7 mod 10 = 7 (odd modulus no longer than a limb)
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(3), BigUInt(7), BigUInt(10)).low_u64(), 7u);
  // even modulus path: 5^3 mod 8 = 5
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(5), BigUInt(3), BigUInt(8)).low_u64(), 5u);
  // exponent 0
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(9), BigUInt(), BigUInt(7)).low_u64(), 1u);
  // base 0
  EXPECT_TRUE(BigUInt::mod_pow(BigUInt(), BigUInt(5), BigUInt(7)).is_zero());
}

TEST(BigUIntTest, ModPowMatchesNaive) {
  SecureRandom rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    const std::uint64_t base = rng.uniform(1000) + 1;
    const std::uint64_t exp = rng.uniform(50);
    const std::uint64_t mod = (rng.uniform(500) * 2 + 3);  // odd, >= 3
    std::uint64_t expected = 1;
    for (std::uint64_t i = 0; i < exp; ++i) expected = (expected * base) % mod;
    EXPECT_EQ(BigUInt::mod_pow(BigUInt(base), BigUInt(exp), BigUInt(mod)).low_u64(),
              expected)
        << base << "^" << exp << " mod " << mod;
  }
}

TEST(BigUIntTest, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p not dividing a.
  const BigUInt p = BigUInt::from_hex("ffffffffffffffffffffffffffffff61");  // 2^128-159, prime
  SecureRandom rng(5);
  for (int i = 0; i < 5; ++i) {
    const BigUInt a = BigUInt::random_below(rng, p - BigUInt(2)) + BigUInt(2);
    EXPECT_EQ(BigUInt::mod_pow(a, p - BigUInt(1), p), BigUInt(1));
  }
}

// Reference: square-and-multiply with a division after every product, the
// algorithm of the even-modulus fallback, checked against the Montgomery path.
BigUInt reference_mod_pow(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  BigUInt result(1);
  const BigUInt b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result % m;
}

TEST(BigUIntTest, MontgomeryMatchesEvenFallbackStyle) {
  SecureRandom rng(123);
  for (int iter = 0; iter < 8; ++iter) {
    BigUInt m = BigUInt::random_with_bits(rng, 128);
    if (m.is_even()) m += BigUInt(1);
    const BigUInt base = BigUInt::random_with_bits(rng, 200);
    const BigUInt exp = BigUInt::random_with_bits(rng, 64);
    EXPECT_EQ(BigUInt::mod_pow(base, exp, m), reference_mod_pow(base, exp, m));
  }
}

TEST(MontgomeryTest, WindowWidthThresholds) {
  EXPECT_EQ(Montgomery::window_bits(1), 1u);
  EXPECT_EQ(Montgomery::window_bits(17), 1u);  // e = 65537
  EXPECT_EQ(Montgomery::window_bits(48), 1u);
  EXPECT_EQ(Montgomery::window_bits(49), 4u);
  EXPECT_EQ(Montgomery::window_bits(384), 4u);
  EXPECT_EQ(Montgomery::window_bits(385), 5u);
  EXPECT_EQ(Montgomery::window_bits(2048), 5u);
}

// Moduli of 96, 544 and 1056 bits (an odd multiple of 32) leave the top
// 64-bit limb half empty.
// Exponents sit one bit below, at and above each window threshold; all-ones
// exponents hit the last table entry in every window.
TEST(MontgomeryTest, MatchesReferenceAcrossLimbCountsAndWindows) {
  SecureRandom rng(2011);
  for (const std::size_t mod_bits : {96u, 544u, 1024u, 1056u, 2048u}) {
    BigUInt m = BigUInt::random_with_bits(rng, mod_bits);
    if (m.is_even()) m += BigUInt(1);
    std::vector<BigUInt> exps = {BigUInt(), BigUInt(1), BigUInt(2), BigUInt(65537)};
    for (const std::size_t threshold : {48u, 384u}) {
      for (const std::size_t bits : {threshold - 1, threshold, threshold + 1}) {
        exps.push_back(BigUInt::random_with_bits(rng, bits));
        exps.push_back((BigUInt(1) << bits) - BigUInt(1));
      }
    }
    const std::vector<BigUInt> bases = {
        BigUInt(), BigUInt(1), m - BigUInt(1), m, m + BigUInt(2),
        BigUInt::random_with_bits(rng, mod_bits + 37),
        BigUInt::random_below(rng, m)};
    for (const BigUInt& exp : exps) {
      for (const BigUInt& base : bases) {
        ASSERT_EQ(BigUInt::mod_pow(base, exp, m), reference_mod_pow(base, exp, m))
            << mod_bits << "-bit m=" << m.to_hex() << " base=" << base.to_hex()
            << " exp=" << exp.to_hex();
      }
    }
  }
}

// Moduli of exactly k 64-bit limbs: every width pow compiles with k fixed
// (4, 8, 16), the run-time width on either side of each, and 2048 bits. A
// modulus whose top limb is all ones sits just below R = 2^(64k), where the
// kernel's running sum crosses R: its top carry limb and the final
// conditional subtraction then decide the result.
TEST(MontgomeryTest, MatchesReferenceAtEveryKernelWidth) {
  SecureRandom rng(18);
  std::vector<std::size_t> widths;
  for (std::size_t k = 1; k <= 17; ++k) widths.push_back(k);
  widths.push_back(32);
  for (const std::size_t k : widths) {
    const std::size_t bits = 64 * k;
    const BigUInt r_minus_1 = (BigUInt(1) << bits) - BigUInt(1);
    BigUInt random_mod = BigUInt::random_with_bits(rng, bits);
    if (random_mod.is_even()) random_mod += BigUInt(1);
    // R - 1 - 2x with 2x < 2^(64(k-1)): odd, top limb all ones.
    const BigUInt top_ones_mod =
        r_minus_1 - ((BigUInt::random_below(rng, r_minus_1) >> 65) << 1);
    for (const BigUInt& m : {random_mod, r_minus_1, top_ones_mod}) {
      const std::vector<BigUInt> exps = {BigUInt(1), BigUInt(65537),
                                         BigUInt::random_with_bits(rng, bits),
                                         r_minus_1};
      const std::vector<BigUInt> bases = {BigUInt(), BigUInt(1), m - BigUInt(1),
                                          BigUInt::random_below(rng, m)};
      for (const BigUInt& exp : exps) {
        for (const BigUInt& base : bases) {
          ASSERT_EQ(BigUInt::mod_pow(base, exp, m), reference_mod_pow(base, exp, m))
              << k << " limbs, m=" << m.to_hex() << " base=" << base.to_hex()
              << " exp=" << exp.to_hex();
        }
      }
    }
  }
}

// The width-K Montgomery kernels, called directly. Production reaches
// mont_mul_fios at these widths only on CPUs without BMI2/ADX, and
// mont_mul_adx only on CPUs with them, so these cases check each against the
// other and against BigUInt arithmetic. There is no switch to force either
// path in production.
#if defined(__x86_64__)
using Limbs = std::vector<std::uint64_t>;

Limbs to_limbs(const BigUInt& v, std::size_t k) {
  const util::Bytes be = v.to_bytes_be(8 * k);
  Limbs out(k);
  for (std::size_t i = 0; i < 8 * k; ++i) {
    out[i / 8] |= std::uint64_t{be[8 * k - 1 - i]} << (8 * (i % 8));
  }
  return out;
}

BigUInt from_limbs(const Limbs& v) {
  util::Bytes be(8 * v.size());
  for (std::size_t i = 0; i < be.size(); ++i) {
    be[be.size() - 1 - i] = static_cast<std::uint8_t>(v[i / 8] >> (8 * (i % 8)));
  }
  return BigUInt::from_bytes_be(be);
}

struct KernelPair {
  detail::MontMulKernel fios;
  detail::MontMulKernel adx;
};

KernelPair kernels_at(std::size_t k) {
  switch (k) {
    case 4: return {&detail::mont_mul_fios<4>, &detail::mont_mul_adx<4>};
    case 8: return {&detail::mont_mul_fios<8>, &detail::mont_mul_adx<8>};
    default: return {&detail::mont_mul_fios<16>, &detail::mont_mul_adx<16>};
  }
}

/// An odd modulus of exactly k limbs with its n' = -n^{-1} mod 2^64.
struct Modulus {
  explicit Modulus(const BigUInt& v, std::size_t k) : value(v), limbs(to_limbs(v, k)) {
    std::uint64_t inv = 1;
    for (int i = 0; i < 6; ++i) inv *= 2 - limbs[0] * inv;
    n_prime = ~inv + 1;
  }
  BigUInt value;
  Limbs limbs;
  std::uint64_t n_prime;
};

/// A random k-limb modulus, R - 1, and one whose top limb is all ones.
std::vector<Modulus> test_moduli(SecureRandom& rng, std::size_t k) {
  const BigUInt r_minus_1 = (BigUInt(1) << (64 * k)) - BigUInt(1);
  BigUInt random_mod = BigUInt::random_with_bits(rng, 64 * k);
  if (random_mod.is_even()) random_mod += BigUInt(1);
  const BigUInt top_ones_mod = r_minus_1 - ((BigUInt::random_below(rng, r_minus_1) >> 65) << 1);
  return {Modulus(random_mod, k), Modulus(r_minus_1, k), Modulus(top_ones_mod, k)};
}

class MontKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!detail::cpu_has_adx()) GTEST_SKIP() << "CPU lacks BMI2 or ADX";
  }

  std::size_t k() const { return GetParam(); }

  std::vector<Modulus> moduli(SecureRandom& rng) const { return test_moduli(rng, k()); }

  /// Runs both kernels on a * b, expects the same limbs from each and that
  /// they are a * b * R^{-1} mod n, and returns them.
  Limbs expect_kernels_agree(const Modulus& m, const Limbs& a, const Limbs& b) const {
    const KernelPair kp = kernels_at(k());
    Limbs fios(k()), adx(k());
    kp.fios(fios.data(), a.data(), b.data(), m.limbs.data(), m.n_prime);
    kp.adx(adx.data(), a.data(), b.data(), m.limbs.data(), m.n_prime);
    EXPECT_EQ(adx, fios) << k() << " limbs, n=" << m.value.to_hex()
                         << " a=" << from_limbs(a).to_hex() << " b=" << from_limbs(b).to_hex();
    // out * R == a * b (mod n), and out < n.
    const BigUInt out = from_limbs(adx);
    EXPECT_LT(out, m.value);
    EXPECT_EQ((out << (64 * k())) % m.value, (from_limbs(a) * from_limbs(b)) % m.value);
    return adx;
  }
};

TEST_P(MontKernelTest, AdxMatchesFiosOnRandomOperands) {
  SecureRandom rng(22 + k());
  for (const Modulus& m : moduli(rng)) {
    for (int iter = 0; iter < 200; ++iter) {
      expect_kernels_agree(m, to_limbs(BigUInt::random_below(rng, m.value), k()),
                           to_limbs(BigUInt::random_below(rng, m.value), k()));
    }
  }
}

TEST_P(MontKernelTest, AdxMatchesFiosOnEdgeOperands) {
  SecureRandom rng(220 + k());
  for (const Modulus& m : moduli(rng)) {
    const std::vector<Limbs> edges = {to_limbs(BigUInt(), k()), to_limbs(BigUInt(1), k()),
                                      to_limbs(m.value - BigUInt(1), k()),
                                      to_limbs(BigUInt::random_below(rng, m.value), k())};
    for (const Limbs& a : edges) {
      for (const Limbs& b : edges) expect_kernels_agree(m, a, b);
    }
  }
}

TEST_P(MontKernelTest, AdxOutputMayAliasEitherOperand) {
  SecureRandom rng(2200 + k());
  const KernelPair kp = kernels_at(k());
  for (const Modulus& m : moduli(rng)) {
    const Limbs a = to_limbs(BigUInt::random_below(rng, m.value), k());
    const Limbs b = to_limbs(BigUInt::random_below(rng, m.value), k());
    const Limbs ab = expect_kernels_agree(m, a, b);
    const Limbs aa = expect_kernels_agree(m, a, a);
    Limbs out = a;
    kp.adx(out.data(), out.data(), b.data(), m.limbs.data(), m.n_prime);
    EXPECT_EQ(out, ab);
    out = b;
    kp.adx(out.data(), a.data(), out.data(), m.limbs.data(), m.n_prime);
    EXPECT_EQ(out, ab);
    out = a;
    kp.adx(out.data(), out.data(), out.data(), m.limbs.data(), m.n_prime);
    EXPECT_EQ(out, aa);
  }
}

// 10^4 chained products, each kernel feeding on its own output, so an
// error in any step carries to the end.
TEST_P(MontKernelTest, AdxMatchesFiosOverAChainedProduct) {
  SecureRandom rng(22000 + k());
  const KernelPair kp = kernels_at(k());
  for (const Modulus& m : moduli(rng)) {
    Limbs x_fios = to_limbs(BigUInt::random_below(rng, m.value), k());
    Limbs y_fios = to_limbs(BigUInt::random_below(rng, m.value), k());
    Limbs x_adx = x_fios, y_adx = y_fios;
    for (int step = 0; step < 10000; ++step) {
      kp.fios(x_fios.data(), x_fios.data(), y_fios.data(), m.limbs.data(), m.n_prime);
      kp.fios(y_fios.data(), y_fios.data(), y_fios.data(), m.limbs.data(), m.n_prime);
      kp.adx(x_adx.data(), x_adx.data(), y_adx.data(), m.limbs.data(), m.n_prime);
      kp.adx(y_adx.data(), y_adx.data(), y_adx.data(), m.limbs.data(), m.n_prime);
      ASSERT_EQ(x_adx, x_fios) << k() << " limbs, step " << step;
    }
    EXPECT_EQ(y_adx, y_fios);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MontKernelTest, ::testing::Values(4, 8, 16));

// The squaring kernel against the portable multiply on (a, a), at the
// widths that have one (Montgomery::pow squares through the multiply at 4
// limbs and on CPUs without BMI2/ADX). Skips on CPUs without BMI2/ADX.
detail::MontSqrKernel sqr_kernel_at(std::size_t k) {
  return k == 8 ? &detail::mont_sqr_adx<8> : &detail::mont_sqr_adx<16>;
}

class MontSqrKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!detail::cpu_has_adx()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  }

  std::size_t k() const { return GetParam(); }

  std::vector<Modulus> moduli(SecureRandom& rng) const { return test_moduli(rng, k()); }

  /// mont_mul_fios on (a, a).
  Limbs square_by_mul(const Modulus& m, const Limbs& a) const {
    Limbs out(k());
    kernels_at(k()).fios(out.data(), a.data(), a.data(), m.limbs.data(), m.n_prime);
    return out;
  }

  /// The squaring kernel gives a the limbs mont_mul_fios gives for (a, a).
  void expect_square(const Modulus& m, const Limbs& a) const {
    Limbs got(k());
    sqr_kernel_at(k())(got.data(), a.data(), m.limbs.data(), m.n_prime);
    EXPECT_EQ(got, square_by_mul(m, a)) << k() << " limbs, n=" << m.value.to_hex()
                                        << " a=" << from_limbs(a).to_hex();
  }
};

TEST_P(MontSqrKernelTest, MatchesMultiplyOnRandomOperands) {
  SecureRandom rng(33 + k());
  for (const Modulus& m : moduli(rng)) {
    for (int iter = 0; iter < 200; ++iter) {
      expect_square(m, to_limbs(BigUInt::random_below(rng, m.value), k()));
    }
  }
}

TEST_P(MontSqrKernelTest, MatchesMultiplyOnEdgeOperands) {
  // 0, 1, n - 1, and the largest operands with the top bit clear and set,
  // which decides the rows' last multiplier limb.
  SecureRandom rng(330 + k());
  const BigUInt half = BigUInt(1) << (64 * k() - 1);
  for (const Modulus& m : moduli(rng)) {
    for (const BigUInt& a : {BigUInt(), BigUInt(1), m.value - BigUInt(1),
                             half - BigUInt(1), half}) {
      expect_square(m, to_limbs(a, k()));
    }
  }
}

TEST_P(MontSqrKernelTest, OutputMayAliasOperand) {
  SecureRandom rng(3300 + k());
  for (const Modulus& m : moduli(rng)) {
    Limbs out = to_limbs(BigUInt::random_below(rng, m.value), k());
    const Limbs want = square_by_mul(m, out);
    sqr_kernel_at(k())(out.data(), out.data(), m.limbs.data(), m.n_prime);
    EXPECT_EQ(out, want);
  }
}

// 10^4 chained squarings, each feeding on its own output, against the same
// chain through the portable multiply.
TEST_P(MontSqrKernelTest, MatchesMultiplyOverAChainedSquaring) {
  SecureRandom rng(33000 + k());
  const detail::MontSqrKernel sqr = sqr_kernel_at(k());
  for (const Modulus& m : moduli(rng)) {
    Limbs want = to_limbs(BigUInt::random_below(rng, m.value), k());
    Limbs got = want;
    for (int step = 0; step < 10000; ++step) {
      want = square_by_mul(m, want);
      sqr(got.data(), got.data(), m.limbs.data(), m.n_prime);
      ASSERT_EQ(got, want) << k() << " limbs, step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MontSqrKernelTest, ::testing::Values(8, 16));
#endif

TEST(MontgomeryTest, ToMontgomeryAndMulMatchBigUIntArithmetic) {
  // to_montgomery folds operands of any length, below and past R^2; mul by
  // an operand in Montgomery form is the plain product mod n.
  SecureRandom rng(29);
  for (const std::size_t bits : {std::size_t{192}, std::size_t{256}, std::size_t{512},
                                 std::size_t{1024}}) {
    BigUInt n = BigUInt::random_with_bits(rng, bits);
    if (n.is_even()) n += BigUInt(1);
    const Montgomery mont(n);
    const std::size_t r_bits = 64 * ((bits + 63) / 64);
    for (const std::size_t x_bits : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                                     std::size_t{100}, bits - 1, bits, bits + 1, 2 * bits,
                                     3 * bits + 7}) {
      const BigUInt x = x_bits == 0 ? BigUInt() : BigUInt::random_with_bits(rng, x_bits);
      EXPECT_EQ(mont.to_montgomery(x), (x << r_bits) % n) << bits << "/" << x_bits;
    }
    const BigUInt a = BigUInt::random_below(rng, n);
    const BigUInt b = BigUInt::random_below(rng, n);
    EXPECT_EQ(mont.mul(a, mont.to_montgomery(b)), (a * b) % n) << bits;
    EXPECT_THROW((void)mont.mul(a, n), std::domain_error);
  }
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigUInt(8)), std::domain_error);
  EXPECT_THROW(Montgomery(BigUInt(1)), std::domain_error);
}

TEST(BigUIntTest, Gcd) {
  EXPECT_EQ(BigUInt::gcd(BigUInt(48), BigUInt(36)).low_u64(), 12u);
  EXPECT_EQ(BigUInt::gcd(BigUInt(17), BigUInt(5)).low_u64(), 1u);
  EXPECT_EQ(BigUInt::gcd(BigUInt(), BigUInt(7)).low_u64(), 7u);
  EXPECT_EQ(BigUInt::gcd(BigUInt(7), BigUInt()).low_u64(), 7u);
}

TEST(BigUIntTest, ModInverse) {
  SecureRandom rng(31);
  const BigUInt m = BigUInt::from_hex("ffffffffffffffffffffffffffffff61");
  for (int i = 0; i < 8; ++i) {
    const BigUInt a = BigUInt::random_below(rng, m - BigUInt(1)) + BigUInt(1);
    const BigUInt inv = BigUInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigUInt(1));
  }
}

TEST(BigUIntTest, ModInverseOfOne) {
  EXPECT_EQ(BigUInt::mod_inverse(BigUInt(1), BigUInt(97)), BigUInt(1));
}

TEST(BigUIntTest, ModInverseNonCoprimeThrows) {
  EXPECT_THROW(BigUInt::mod_inverse(BigUInt(6), BigUInt(9)), std::domain_error);
}

TEST(BigUIntTest, RandomWithBitsExactWidth) {
  SecureRandom rng(71);
  for (std::size_t bits : {8u, 17u, 32u, 33u, 64u, 100u, 256u}) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(BigUInt::random_with_bits(rng, bits).bit_length(), bits);
    }
  }
}

TEST(BigUIntTest, RandomBelowRespectsBound) {
  SecureRandom rng(73);
  const BigUInt bound = BigUInt::from_hex("1000000000000001");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(BigUInt::random_below(rng, bound), bound);
  }
}

// --- golden vectors generated independently with Python's arbitrary-
// precision integers (random.seed(777)) ---

struct DivModVector {
  const char* u;
  const char* v;
  const char* q;
  const char* r;
};

TEST(BigUIntGoldenTest, DivModAgainstPython) {
  const DivModVector vectors[] = {
      {"89a560d8297d4d495104513e9a493548b905e5c7474fdec65fe721297377222d7283ab5a383",
       "3a625b7218d06eec35bea10a3bf4d9c097ce13",
       "25b8b002f2bfc6394c6288ee0da2afc4c94699",
       "13b835d2dc6eaaf555d9841fc8a06644b74828"},
      {"b11d3f578cede15ff11eefb5c0fe3f7f14e06fc89649f9b43a99fb6ec663bc45c18c1a87369f4b56d2ab00ca3e",
       "2f5cbd5bdb589bdd1a845f0d554949efe35fed0d13f6a1e7",
       "3bd541b37663d4ce078a5533dbbe2109962b5dc9d78",
       "2e82f9b0592e63f5127220c0305ae4327fba19998963af6"},
      {"aa17739631b6ebfdd447364c8959f352e4983b1175698042793a9ba74a4ae0b71d637d8f2005075e8e99662adeefe4237fe0733f5",
       "34cfae3e63d07da4792027d9dd804b29624fefc8ef35ae2cd6def04b77",
       "33882c81681cf68dc64d4f184c1255a21144d899327af1d3",
       "33364149b24f045da50413b293b0fa98281803708d726255ddd237f9e0"},
      {"de6d73444660ac57a96e030a8be16eab8beeb02e138b7d0186a09d76939d412c25d6e1559c10c03b591e8c2308bb2028cd8d4c489635f0716a3dfe43",
       "1c1b02cb40cd2b05600a73465a408c5ee086182163037f058744b0a52a49c6610001",
       "7e9fd1f9f34d98f3ddda3645037c2003b62380336671002219ea5",
       "6f1f98b79afb952a87a1e20e8b864260178673003d8bd97f74254526ae3ad975f9e"},
  };
  for (const DivModVector& v : vectors) {
    const auto dm = BigUInt::divmod(BigUInt::from_hex(v.u), BigUInt::from_hex(v.v));
    EXPECT_EQ(dm.quotient.to_hex(), v.q);
    EXPECT_EQ(dm.remainder.to_hex(), v.r);
  }
}

struct ModPowVector {
  const char* base;
  const char* exp;
  const char* mod;
  const char* expected;
};

TEST(BigUIntGoldenTest, ModPowAgainstPython) {
  const ModPowVector vectors[] = {
      {"6016a50459621e1360907f6085a8f5fe2337ddb56441a81490",
       "7aec65f393401ccfbba0942d90fe01",
       "147b3c3ee4defae8f9275f3e2e66b7d64c50c5689443a8710583debbedd5e4b",
       "cf0644ae0e9506e64d1728be17b9041f33249efaf22c0638781997a57dba5a"},
      {"1f2c31775afdd61a04183589e9fc81e9993010b8c24e702f85",
       "8a8e89504eb52d57fa6978df317b6",
       "1117e75a5b063e543c31538e1e3545b9628371e78a4d89ff9eda1e901989e71",
       "a2b7cce7a5e18a52cc37d8aa5e492df58b5b0c9cbd2756b752b438b17b9a68"},
      {"e7cda915ff1eb59167b2d30d162b2336c102bcdfd6d38517c1",
       "1ff39d62b956857f5b2384a46be223",
       "1c786f766242e436c1c040a67eea237d111122f7f6cf171a9b81f92a759ee5b",
       "16f8b8a0bc4b9ebea951aa83e7d429b49f25d7fc0020343599496dc30575d74"},
      {"5b8cb2be9fa0c21aa2a3f82949ad99260e96e78e4257d99977",
       "81917d9ae35f008a9fe779ad113eb4",
       "12568c75fb595f2d2501595e2a7eb3e0dab9490ce6452db9c47f4ee0d7801a7",
       "3e3bcf56c55002617d27a226043c3cdeace754baeae8abc4f061722bf1551b"},
      // even modulus (exercises the non-Montgomery fallback)
      {"ed5afe54494ded5dfe661b021", "b282907826", "4994eaadb140c2268fcffa6f1bbe68",
       "4088713941752d3415374f81916279"},
      // RSA-size odd moduli, bases 40 bits wider than the modulus
      // (random.seed(1616)); 1024 bits:
      {"c50194518ac6c8a7d260d093dda10b3d2f1031ae9dc0ac0c840a7b18273e855ad908805e"
       "4913bbdb546889f0f0c79f97664efc8118410857813b5db167efd267bd215cbaa046bd62"
       "35812a4f6022e8a60bc3415d9df837d0db6a8de724318bae2d4fbea8a2eccaddfeb5b538"
       "8d19ded6f73a08f44a89e5287397289a1184a17143f9cdb29b",
       "81a4fd36ff30dbafad12edf0de60fb9f00cf92665cd17737bdc7d80cb2049ed41497b92c"
       "589d6d219bb050c769bfce4dbcde2b063872053f3ad040cdb5c7aa538a6015e346fdf065"
       "9e8da0e2c99d0ea4e29d69c26f99eb807d4219af2cdf057008115c9e6e0d71f88adff3ef"
       "1584978a29dcbabf54bcde01dc09162e835bfade",
       "a8eaffe2af65dc7c89ed9a268e271e6dfd82d796949181cc29d49d78787722c399086857"
       "63248e86b845c14c758e2540a1762c093024e6a8bf6e93c6edb5acbc5b94aa86b6859794"
       "b098ce7b74d9cbe55d21c5fd53fdf7db24b1243c50c49277dc465a1a29a976b14b965b90"
       "926116034839921422ef519f5d7a1208900fce69",
       "914a82834abf44c53d5d73774bae3b3b448e7f77a3067e4d082a6eeefa114ee2fa50670c"
       "3594aaf3bb4b506687c526593647e335cffbc174e926bbf1c7adc33b8320786e1fa16722"
       "3666da3f194771a23fd5841d42cf35a6f5fceed36b9de649379767065e19913f28e4756b"
       "08ff82ee6bb5122a47cb762bca9912d244df81fa"},
      // 2048 bits:
      {"93e8519332230177865c1c821ec681af89775d44290cca6bf0cb560acb569dede013f801"
       "f5124a503b8cddb0553a5490c29549c718358d41a480c4204b9558cdf6b0c21f02561209"
       "f50f05eaad87278d8b264ae79907e0d10ac4a0d8d8ad31a648ac1e290d26d0db6e885500"
       "9f1ed6f73bac28950fd39cc1e36b0cc14bd4cb46be47cf5419d077586ab15c28268cb219"
       "d1bc3517adc7c6339fdef2faca0711fcbaca7ca6c309e7b231cf22951625f9fb5b64cf6c"
       "ad214f19204659b38b2b03179b3688aea3ace543dce33fa110d60aacc895aec10917a076"
       "adba7b60455386b0080cb0d40af1f4c15ffb47905a791fdaf5e8cdb4b845d27262f4c9ce"
       "5d14662df863271645",
       "e9bf12571da8aab14c86710097101be5b504005d60b6a8aa5e542687080015e32e4246cd"
       "5bc50cac343f4bccb32dbfc6fa0c130ffeebd2aba0064e6165482240555ba67a6042a408"
       "4595636274fae8410541b90504ee9494adbb8f6ea0ccbd550db6b7a9cb34be2a75f8dafb"
       "956130873df712410a2e6d210a9cd952757723479615a5c6f775847614f78f37eb42a85e"
       "8426c7dbcbe9ab2bb7aa19a134a5108f6d5321e653a9490f850a7e24a60c7301ba2ade07"
       "7d41d8a7274415b164cb38f31e0fccbeb03fc24d17fce0d69c3481e86df022c9f17df78a"
       "a3f2db1f3c0c26cf3fdf72375c99000596ce1e29e8d001eb73457fb5b23e4c7d5f600786"
       "7b65f10a",
       "f9257516837c5c58a9b603c38d57a881535bc0fc92ebf74a314482d4b851a73454ba4398"
       "82d10c8f752036e9f744396676ff9aa556c1dcd74c3d3843db37b8f75bd5e7d3d381a511"
       "098a8c745e433ce4ad9413352535f7e216cfdfd1f269dc4235681e15da4753781d24b4bc"
       "15f8e06d9e57866716df1549c97845adf9739e153d52d590cb032cba7e3c5503855d582a"
       "f3223dd5bed2e4309f9ebbe05cb3d2a5eae10f1270195841c8ca510b675c089b86d0110d"
       "8f38cf20d5ba540256e6eaebabefb510260f8620241641dcb130f23ec7c0e9b0b0d4e3c1"
       "5e4e51e05e1af4b863e2e49e7b1ee343ba69566bb4a7bbd4eb68af6c2ae09fc4e53e74ae"
       "419cef29",
       "27ed6988a77e2ff19040d897b73f11728f247b87c06ad4ab566ea0ec9fae6ce4f49d8f09"
       "70b446c7ac3e9bace122b493f6b6c80233ce27772e10a65c4a951fa28b5bbf334616d832"
       "dba9e49ef7568e60bcb05438ae5f45bf924880f27810a6c83f1d0fcf8344d2e75b3848eb"
       "f07845a5c4e50dcb3b5752e5046229f94e950cad2761c966cae5ba987f4b1392f48a9561"
       "78ea993bb8fbf349dbb224119160528f7ae98b9e7303dc4dc06e358c4c23964ff85126e2"
       "5e4a0fabd4a3c269a763556bdb474fdce03be1311c6c459f43b339e0aa3ae71d992947bd"
       "dbb878bd3fc7fc144507b038088b50c095c5a82117cce1cf1b124d81e65d8c8dcfb155d9"
       "c8957f30"},
  };
  for (const ModPowVector& v : vectors) {
    EXPECT_EQ(BigUInt::mod_pow(BigUInt::from_hex(v.base), BigUInt::from_hex(v.exp),
                               BigUInt::from_hex(v.mod))
                  .to_hex(),
              v.expected);
  }
}

struct ModInverseVector {
  const char* a;
  const char* m;
  const char* inv;
};

TEST(BigUIntGoldenTest, ModInverseAgainstPython) {
  const ModInverseVector vectors[] = {
      {"4d1fc444ac763488b4a11ebc88f4514acce32531c65aa",
       "d5e7fe266be8a52c6daf53638f7d7a4f47a941ad93b422ffbf",
       "37444229fe24cc9acd36adea3fafeaf8093d333a98db8f0ae0"},
      {"1252fc5f34db0fe76cc167625ee2c1628dbf82afda1b9",
       "9171c6563f97bfbd488e9ee0a2e64ffb1528166f6f6d288d41",
       "8ddcf96d9d5f532a635db4608f9f066b2ae600601ad02bdc8b"},
      {"1b0cbde079eaea48e8c66216647fa9d1852a7338025f4",
       "be9a1b929eaab8999eedc47b8862f5b39c18efb83b56d821cf",
       "5d9024f8422191a03821b48a017e10796291278d250f60194c"},
  };
  for (const ModInverseVector& v : vectors) {
    EXPECT_EQ(
        BigUInt::mod_inverse(BigUInt::from_hex(v.a), BigUInt::from_hex(v.m)).to_hex(),
        v.inv);
  }
}

TEST(PrimalityTest, SmallPrimes) {
  SecureRandom rng(1);
  for (std::uint64_t p : {2u, 3u, 5u, 7u, 11u, 13u, 97u, 1009u, 7919u}) {
    EXPECT_TRUE(is_probable_prime(BigUInt(p), rng)) << p;
  }
}

TEST(PrimalityTest, SmallComposites) {
  SecureRandom rng(2);
  for (std::uint64_t c : {1u, 4u, 6u, 9u, 15u, 100u, 1001u, 7917u}) {
    EXPECT_FALSE(is_probable_prime(BigUInt(c), rng)) << c;
  }
}

TEST(PrimalityTest, CarmichaelNumbers) {
  // Fermat pseudoprimes that Miller–Rabin must still reject.
  SecureRandom rng(3);
  for (std::uint64_t c : {561u, 1105u, 1729u, 2465u, 2821u, 6601u, 8911u}) {
    EXPECT_FALSE(is_probable_prime(BigUInt(c), rng)) << c;
  }
}

TEST(PrimalityTest, KnownLargePrime) {
  SecureRandom rng(4);
  // 2^127 - 1 (Mersenne prime)
  const BigUInt m127 = (BigUInt(1) << 127) - BigUInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(is_probable_prime((BigUInt(1) << 128) - BigUInt(1), rng));
}

TEST(PrimalityTest, GeneratePrimeWidthAndPrimality) {
  SecureRandom rng(6);
  const BigUInt p = generate_prime(rng, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(is_probable_prime(p, rng));
}

}  // namespace
}  // namespace p2pdrm::crypto
