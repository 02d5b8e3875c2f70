#include <gtest/gtest.h>

#include "crypto/aes128.h"
#include "crypto/chacha20.h"
#include "util/bytes.h"

namespace p2pdrm::crypto {
namespace {

using util::Bytes;
using util::bytes_of;
using util::from_hex;
using util::to_hex;

AesKey key_from_hex(const std::string& hex) {
  const Bytes b = from_hex(hex);
  AesKey k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

// FIPS-197 Appendix C.1.
TEST(Aes128Test, Fips197Vector) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(util::BytesView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// NIST SP 800-38A F.1.1 (ECB example block 1).
TEST(Aes128Test, Sp800_38aEcbBlock) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(util::BytesView(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128Test, EncryptDecryptInPlace) {
  const Aes128 aes(key_from_hex("00000000000000000000000000000000"));
  std::uint8_t block[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  std::uint8_t out_of_place[16];
  aes.encrypt_block(block, out_of_place);
  aes.encrypt_block(block, block);
  EXPECT_TRUE(std::equal(std::begin(block), std::end(block), out_of_place));
}

TEST(Aes128Test, DifferentKeysDifferentCiphertext) {
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t c1[16], c2[16];
  Aes128(key_from_hex("000102030405060708090a0b0c0d0e0f")).encrypt_block(pt.data(), c1);
  Aes128(key_from_hex("100102030405060708090a0b0c0d0e0f")).encrypt_block(pt.data(), c2);
  EXPECT_NE(to_hex(util::BytesView(c1, 16)), to_hex(util::BytesView(c2, 16)));
}

TEST(AesCtrTest, RoundTrip) {
  const AesCtr ctr(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"), 0x1234);
  const Bytes plain = bytes_of("live broadcast content packet payload, 47 bytes");
  Bytes data = plain;
  ctr.crypt(data);
  EXPECT_NE(data, plain);
  ctr.crypt(data);
  EXPECT_EQ(data, plain);
}

TEST(AesCtrTest, CryptCopyMatchesInPlace) {
  const AesCtr ctr(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"), 99);
  const Bytes plain = bytes_of("stream data");
  Bytes in_place = plain;
  ctr.crypt(in_place);
  EXPECT_EQ(ctr.crypt_copy(plain), in_place);
}

TEST(AesCtrTest, RandomAccessOffsets) {
  // Encrypting a buffer in one shot must equal encrypting it piecewise at
  // the matching offsets — peers decrypt packets independently.
  const AesCtr ctr(key_from_hex("000102030405060708090a0b0c0d0e0f"), 7);
  Bytes whole(100);
  for (std::size_t i = 0; i < whole.size(); ++i) whole[i] = static_cast<std::uint8_t>(i);
  const Bytes plain = whole;
  ctr.crypt(whole);

  for (std::size_t start : {0u, 1u, 15u, 16u, 17u, 31u, 33u, 64u, 99u}) {
    Bytes piece(plain.begin() + static_cast<std::ptrdiff_t>(start), plain.end());
    ctr.crypt(piece, start);
    EXPECT_EQ(piece, Bytes(whole.begin() + static_cast<std::ptrdiff_t>(start), whole.end()))
        << "offset " << start;
  }
}

TEST(AesCtrTest, DifferentNoncesDifferentStreams) {
  const AesKey key = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes plain(32, 0);
  EXPECT_NE(AesCtr(key, 1).crypt_copy(plain), AesCtr(key, 2).crypt_copy(plain));
}

TEST(AesCtrTest, EmptyInput) {
  const AesCtr ctr(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"), 0);
  Bytes empty;
  ctr.crypt(empty);
  EXPECT_TRUE(empty.empty());
}

// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt). The initial counter block
// f0f1...feff is nonce f0f1f2f3f4f5f6f7 || block f8f9fafbfcfdfeff; the four
// blocks are exactly one batch of the AES-NI kernel.
void expect_sp800_38a_ctr(detail::CtrKernel kernel) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes data = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  kernel(aes.round_keys(), 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL, 0, data);
  EXPECT_EQ(to_hex(data),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

// Every length 0-299 at every offset 0-69 against the keystream built from
// encrypt_block of each counter block. The block index starts just below a
// 32-bit carry, so a counter in the wrong byte order shows.
void expect_matches_block_reference(detail::CtrKernel kernel) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const std::uint64_t nonce = 0x0123456789abcdefULL;
  const std::uint64_t first_block = 0xfffffffdULL;
  constexpr std::size_t kMaxOffset = 69, kMaxLength = 299;
  Bytes keystream((kMaxOffset + kMaxLength) / kAesBlockSize * kAesBlockSize + kAesBlockSize);
  for (std::size_t b = 0; b * kAesBlockSize < keystream.size(); ++b) {
    AesBlock counter{};
    util::store_be64(counter.data(), nonce);
    util::store_be64(counter.data() + 8, first_block + b);
    aes.encrypt_block(counter.data(), keystream.data() + b * kAesBlockSize);
  }
  Bytes plain(kMaxLength);
  for (std::size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<std::uint8_t>(i * 31 + 7);

  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      Bytes data(plain.begin(), plain.begin() + static_cast<std::ptrdiff_t>(length));
      kernel(aes.round_keys(), nonce, first_block + offset / kAesBlockSize,
             offset % kAesBlockSize, data);
      Bytes expected(length);
      for (std::size_t i = 0; i < length; ++i) expected[i] = plain[i] ^ keystream[offset + i];
      ASSERT_EQ(data, expected) << "offset " << offset << " length " << length;
    }
  }
}

TEST(AesCtrKernelTest, PortableSp800_38aCtrVector) {
  expect_sp800_38a_ctr(&detail::ctr_portable);
}

TEST(AesCtrKernelTest, PortableMatchesBlockReference) {
  expect_matches_block_reference(&detail::ctr_portable);
}

#if defined(__x86_64__)
TEST(AesCtrKernelTest, AesNiSp800_38aCtrVector) {
  if (!detail::cpu_has_aesni()) GTEST_SKIP() << "CPU lacks AES-NI";
  expect_sp800_38a_ctr(&detail::ctr_aesni);
}

TEST(AesCtrKernelTest, AesNiMatchesBlockReference) {
  if (!detail::cpu_has_aesni()) GTEST_SKIP() << "CPU lacks AES-NI";
  expect_matches_block_reference(&detail::ctr_aesni);
}
#endif

class AesCtrLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesCtrLengthTest, RoundTripAtLength) {
  const AesCtr ctr(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"), 555);
  Bytes data(GetParam());
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7);
  const Bytes original = data;
  ctr.crypt(data);
  if (!data.empty()) {
    EXPECT_NE(data, original);
  }
  ctr.crypt(data);
  EXPECT_EQ(data, original);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AesCtrLengthTest,
                         ::testing::Values(1, 15, 16, 17, 32, 100, 1000, 1500, 4096));

}  // namespace
}  // namespace p2pdrm::crypto
