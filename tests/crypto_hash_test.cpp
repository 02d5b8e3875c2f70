#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace p2pdrm::crypto {
namespace {

using util::Bytes;
using util::bytes_of;
using util::from_hex;
using util::to_hex;

std::string digest_hex(const Sha256Digest& d) {
  return to_hex(util::BytesView(d.data(), d.size()));
}

// --- SHA-256: FIPS 180-4 / NIST CAVP vectors ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(util::BytesView(msg.data(), split));
    h.update(util::BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x5a);
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(h.finish(), sha256(msg)) << "len " << len;
  }
}

TEST(Sha256Test, PaddingEdgeKnownAnswers) {
  // Message bytes 0, 1, 2, ...: 55 is the longest message whose padding
  // fits one block, 56-63 spill the length into a second, 64 and 119 end a
  // block exactly or leave 55 bytes in the second. Digests are those of
  // the byte-at-a-time padding this implementation used before, and of
  // Python's hashlib.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
  };
  for (const auto& [len, want] : cases) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(digest_hex(sha256(msg)), want) << "len " << len;
  }
}

TEST(Sha256Test, EmptyUpdateMidBlockLeavesDigestUnchanged) {
  // One byte buffered, then an empty (null-data) view: nothing is hashed.
  Sha256 h;
  h.update(bytes_of("a"));
  h.update(util::BytesView());
  h.update(util::BytesView());
  EXPECT_EQ(h.finish(), sha256(bytes_of("a")));
}

TEST(Sha256Test, EmptyUpdateAtBlockBoundaryLeavesDigestUnchanged) {
  const Bytes block(kSha256BlockSize, 0x5a);
  Sha256 h;
  h.update(util::BytesView());  // fresh state
  h.update(block);
  h.update(util::BytesView());  // buffer drained by a whole block
  EXPECT_EQ(h.finish(), sha256(block));
}

TEST(Sha256Test, ResetReusesObject) {
  Sha256 h;
  h.update(bytes_of("abc"));
  (void)h.finish();
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, BytesHelper) {
  EXPECT_EQ(sha256_bytes(bytes_of("abc")).size(), kSha256DigestSize);
}

// --- SHA-256 compression kernels ---
// Sha256 runs the SHA-NI kernel on CPUs with the SHA extensions and the
// portable one elsewhere, with no switch to force either; these cases call
// each kernel directly. The cases that need SHA-NI skip on CPUs without it.

constexpr std::uint32_t kSha256Init[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// SHA-256 of msg with its blocks compressed by `kernel`.
Sha256Digest sha256_with(detail::Sha256Kernel kernel, util::BytesView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != 56) padded.push_back(0);
  std::uint8_t bits[8];
  util::store_be64(bits, 8 * static_cast<std::uint64_t>(msg.size()));
  padded.insert(padded.end(), bits, bits + 8);
  std::uint32_t state[8];
  std::copy(std::begin(kSha256Init), std::end(kSha256Init), state);
  kernel(state, padded.data(), padded.size() / kSha256BlockSize);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) util::store_be32(out.data() + 4 * i, state[i]);
  return out;
}

/// HMAC-SHA-256 (RFC 2104) over sha256_with.
Sha256Digest hmac_with(detail::Sha256Kernel kernel, util::BytesView key,
                       util::BytesView msg) {
  Bytes k(key.begin(), key.end());
  if (k.size() > kSha256BlockSize) {
    const Sha256Digest d = sha256_with(kernel, k);
    k.assign(d.begin(), d.end());
  }
  k.resize(kSha256BlockSize, 0);
  Bytes inner(kSha256BlockSize), outer(kSha256BlockSize);
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    inner[i] = k[i] ^ 0x36;
    outer[i] = k[i] ^ 0x5c;
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Sha256Digest inner_digest = sha256_with(kernel, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return sha256_with(kernel, outer);
}

std::vector<detail::Sha256Kernel> sha256_kernels() {
  std::vector<detail::Sha256Kernel> out = {&detail::sha256_compress_portable};
#if defined(__x86_64__)
  if (detail::cpu_has_sha()) out.push_back(&detail::sha256_compress_shani);
#endif
  return out;
}

#if defined(__x86_64__)
TEST(Sha256KernelTest, ShaniMatchesPortableOnRandomStatesAndBlocks) {
  if (!detail::cpu_has_sha()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  SecureRandom rng(256);
  for (int iter = 0; iter < 2000; ++iter) {
    std::uint32_t portable[8], shani[8];
    for (std::uint32_t& w : portable) w = rng.next_u32();
    std::copy(std::begin(portable), std::end(portable), shani);
    const std::size_t blocks = 1 + rng.uniform(4);
    const Bytes data = rng.bytes(blocks * kSha256BlockSize);
    detail::sha256_compress_portable(portable, data.data(), blocks);
    detail::sha256_compress_shani(shani, data.data(), blocks);
    ASSERT_TRUE(std::equal(std::begin(portable), std::end(portable), shani))
        << "iteration " << iter << ", " << blocks << " blocks";
  }
}
#endif

TEST(Sha256KernelTest, EveryKernelGivesTheKnownAnswers) {
  // The inputs of the Sha256Test and HmacTest known-answer cases, which pin
  // sha256() and hmac_sha256(): each kernel must give the same digests.
  std::vector<Bytes> messages = {{}, bytes_of("abc"),
                                 bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
                                 Bytes(1000000, 'a')};
  for (const std::size_t len : {55u, 56u, 63u, 64u, 119u}) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i);
    messages.push_back(msg);
  }
  Bytes key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<std::uint8_t>(i + 1);
  const std::vector<std::pair<Bytes, Bytes>> macs = {
      {Bytes(20, 0x0b), bytes_of("Hi There")},
      {bytes_of("Jefe"), bytes_of("what do ya want for nothing?")},
      {Bytes(20, 0xaa), Bytes(50, 0xdd)},
      {key4, Bytes(50, 0xcd)},
      {Bytes(131, 0xaa), bytes_of("Test Using Larger Than Block-Size Key - Hash Key First")},
      {Bytes(131, 0xaa),
       bytes_of("This is a test using a larger than block-size key and a larger than "
                "block-size data. The key needs to be hashed before being used by the HMAC "
                "algorithm.")}};
  for (const detail::Sha256Kernel kernel : sha256_kernels()) {
    for (const Bytes& msg : messages) {
      EXPECT_EQ(digest_hex(sha256_with(kernel, msg)), digest_hex(sha256(msg)))
          << msg.size() << " bytes";
    }
    for (const auto& [key, msg] : macs) {
      EXPECT_EQ(digest_hex(hmac_with(kernel, key, msg)), digest_hex(hmac_sha256(key, msg)))
          << key.size() << "-byte key";
    }
  }
}

// --- HMAC-SHA-256: RFC 4231 vectors ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(digest_hex(hmac_sha256(bytes_of("Jefe"),
                                   bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, bytes_of("This is a test using a larger than block-size key and a "
                              "larger than block-size data. The key needs to be hashed "
                              "before being used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, IncrementalMatchesOneShot) {
  const Bytes key = bytes_of("attestation-key");
  const Bytes data = bytes_of("some client binary region");
  HmacSha256 h(key);
  h.update(util::BytesView(data.data(), 10));
  h.update(util::BytesView(data.data() + 10, data.size() - 10));
  EXPECT_EQ(h.finish(), hmac_sha256(key, data));
}

TEST(HmacTest, DifferentKeysDiffer) {
  const Bytes data = bytes_of("payload");
  EXPECT_NE(hmac_sha256(bytes_of("k1"), data), hmac_sha256(bytes_of("k2"), data));
}

TEST(DeriveKeyTest, LengthAndDeterminism) {
  const Bytes key = bytes_of("master");
  const Bytes a = derive_key(key, bytes_of("label"), 48);
  const Bytes b = derive_key(key, bytes_of("label"), 48);
  EXPECT_EQ(a.size(), 48u);
  EXPECT_EQ(a, b);
}

TEST(DeriveKeyTest, LabelSeparation) {
  const Bytes key = bytes_of("master");
  EXPECT_NE(derive_key(key, bytes_of("a"), 32), derive_key(key, bytes_of("b"), 32));
}

TEST(DeriveKeyTest, PrefixConsistency) {
  const Bytes key = bytes_of("master");
  const Bytes long_out = derive_key(key, bytes_of("label"), 64);
  const Bytes short_out = derive_key(key, bytes_of("label"), 32);
  EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 32), short_out);
}

// --- ChaCha20: RFC 8439 vectors ---

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce{};
  const Bytes nonce_bytes = from_hex("000000090000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());

  std::uint8_t out[kChaChaBlockSize];
  chacha20_block(key, nonce, 1, out);
  EXPECT_EQ(to_hex(util::BytesView(out, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce{};
  const Bytes nonce_bytes = from_hex("000000000000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());

  // RFC 8439 section 2.4.2: the keystream from counter 1, XORed into the
  // 114-byte plaintext (the first two blocks of one run of the core).
  Bytes text = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  ASSERT_EQ(text.size(), 114u);
  std::uint8_t keystream[detail::kChaChaLanes * kChaChaBlockSize];
  detail::chacha20_blocks(key, nonce, 1, keystream);
  for (std::size_t i = 0; i < text.size(); ++i) text[i] ^= keystream[i];
  EXPECT_EQ(to_hex(text),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EveryKernelEqualsOneBlockAtATime) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(3 * i + 1);
  // The low nonce word is all ones, so rolling it carries into the next.
  ChaChaNonce nonce{0xff, 0xff, 0xff, 0xff, 0x09, 0, 0, 0, 0x4a, 0, 0, 0};
  ChaChaNonce rolled{0, 0, 0, 0, 0x0a, 0, 0, 0, 0x4a, 0, 0, 0};

  std::vector<std::pair<const char*, detail::ChaChaKernel>> kernels = {
      {"dispatched", &detail::chacha20_blocks},
      {"portable", &detail::chacha20_blocks_portable}};
#if defined(__x86_64__)
  if (detail::cpu_has_avx2()) kernels.emplace_back("avx2", &detail::chacha20_blocks_avx2);
  if (detail::cpu_has_avx512f()) {
    kernels.emplace_back("avx512", &detail::chacha20_blocks_avx512);
  }
#endif
  static_assert(detail::kChaChaLanes == 16);
  std::uint8_t lanes[detail::kChaChaLanes * kChaChaBlockSize];
  std::uint8_t block[kChaChaBlockSize];
  for (const auto& [name, kernel] : kernels) {
    // From counter 0, then with the 2^32 counter wrap at lane 1, 2, 8 and
    // 15: the lanes from the wrap on are counters 0, 1, ... under the
    // rolled nonce, as the DRBG's stream continues.
    for (const std::uint32_t wrap_lane : {0u, 1u, 2u, 8u, 15u}) {
      const std::uint32_t first = 0u - wrap_lane;
      kernel(key, nonce, first, lanes);
      for (std::uint32_t j = 0; j < detail::kChaChaLanes; ++j) {
        const bool past_wrap = wrap_lane > 0 && j >= wrap_lane;
        chacha20_block(key, past_wrap ? rolled : nonce, first + j, block);
        EXPECT_EQ(to_hex(util::BytesView(lanes + kChaChaBlockSize * j, kChaChaBlockSize)),
                  to_hex(util::BytesView(block, kChaChaBlockSize)))
            << name << " kernel from counter " << first << ", lane " << j;
      }
    }
  }
}

// --- SecureRandom (DRBG) ---

TEST(SecureRandomTest, DeterministicFromSeed) {
  SecureRandom a(42), b(42);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SecureRandomTest, InterleavedDrawsKnownAnswer) {
  // 64 KiB from an interleaving of every draw width, so draws start at
  // every offset and straddle the block and refill boundaries. The digest
  // was recorded when the generator made one block per refill and every
  // draw went through fill().
  SecureRandom rng(20080623);
  Bytes out;
  std::uint8_t word[8];
  for (std::size_t step = 0; out.size() < 65536; ++step) {
    switch (step % 5) {
      case 0:
        util::store_be32(word, rng.next_u32());
        out.insert(out.end(), word, word + 4);
        break;
      case 1:
        util::store_be64(word, rng.next_u64());
        out.insert(out.end(), word, word + 8);
        break;
      case 2:
        util::store_be64(word, std::bit_cast<std::uint64_t>(rng.uniform_real()));
        out.insert(out.end(), word, word + 8);
        break;
      case 3: {
        const Bytes b = rng.bytes(step % 7 == 0 ? 301 : 2 * (step % 41) + 1);
        out.insert(out.end(), b.begin(), b.end());
        break;
      }
      default:
        util::store_be64(word, rng.uniform(1000003));
        out.insert(out.end(), word, word + 8);
    }
  }
  out.resize(65536);
  EXPECT_EQ(digest_hex(sha256(out)),
            "2d6d4c0ff7191fabdf15d0f6ce76933383124a30f8063a3406087a37ec2f10f8");
}

TEST(SecureRandomTest, DifferentSeedsDiffer) {
  SecureRandom a(1), b(2);
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(SecureRandomTest, UniformBoundRespected) {
  SecureRandom rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(SecureRandomTest, UniformRealInUnitInterval) {
  SecureRandom rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(SecureRandomTest, ExponentialMean) {
  SecureRandom rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(SecureRandomTest, NormalMoments) {
  SecureRandom rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(3.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(SecureRandomTest, ForkIndependence) {
  SecureRandom parent(5);
  SecureRandom child = parent.fork();
  EXPECT_NE(parent.bytes(32), child.bytes(32));
}

TEST(SecureRandomTest, ChanceExtremes) {
  SecureRandom rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace p2pdrm::crypto
