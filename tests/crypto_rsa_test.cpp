#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/rsa.h"
#include "util/bytes.h"

namespace p2pdrm::crypto {
namespace {

using util::Bytes;
using util::bytes_of;

// Key generation is the slow part; share one pair across the suite.
const RsaKeyPair& test_keypair() {
  static const RsaKeyPair kp = [] {
    SecureRandom rng(0xdeadbeef);
    return generate_rsa_keypair(rng, 512);
  }();
  return kp;
}

const RsaKeyPair& other_keypair() {
  static const RsaKeyPair kp = [] {
    SecureRandom rng(0xfeedface);
    return generate_rsa_keypair(rng, 512);
  }();
  return kp;
}

TEST(RsaKeygenTest, ModulusProperties) {
  const auto& kp = test_keypair();
  EXPECT_EQ(kp.pub.n.bit_length(), 512u);
  EXPECT_EQ(kp.pub.e, BigUInt(65537));
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.priv.n);
  EXPECT_EQ(kp.pub.n, kp.priv.n);
}

TEST(RsaKeygenTest, PrivateExponentInverts) {
  const auto& kp = test_keypair();
  const BigUInt phi = (kp.priv.p - BigUInt(1)) * (kp.priv.q - BigUInt(1));
  EXPECT_EQ((kp.priv.d * kp.priv.e) % phi, BigUInt(1));
}

TEST(RsaKeygenTest, CrtComponentsConsistent) {
  const auto& kp = test_keypair();
  EXPECT_EQ(kp.priv.dp, kp.priv.d % (kp.priv.p - BigUInt(1)));
  EXPECT_EQ(kp.priv.dq, kp.priv.d % (kp.priv.q - BigUInt(1)));
  EXPECT_EQ((kp.priv.qinv * kp.priv.q) % kp.priv.p, BigUInt(1));
}

TEST(RsaKeygenTest, RejectsTinyKeys) {
  SecureRandom rng(1);
  EXPECT_THROW(generate_rsa_keypair(rng, 128), std::invalid_argument);
}

TEST(RsaKeygenTest, PrivateOpInvertsPublicOp) {
  const auto& kp = test_keypair();
  SecureRandom rng(17);
  for (int i = 0; i < 3; ++i) {
    const BigUInt m = BigUInt::random_below(rng, kp.pub.n);
    const BigUInt c = BigUInt::mod_pow(m, kp.pub.e, kp.pub.n);
    EXPECT_EQ(kp.priv.private_op(c), m);
  }
}

TEST(RsaPublicKeyTest, EncodeDecodeRoundTrip) {
  const auto& kp = test_keypair();
  const RsaPublicKey decoded = RsaPublicKey::decode(kp.pub.encode());
  EXPECT_EQ(decoded, kp.pub);
}

TEST(RsaPublicKeyTest, FingerprintStableAndDistinct) {
  EXPECT_EQ(test_keypair().pub.fingerprint(), test_keypair().pub.fingerprint());
  EXPECT_NE(test_keypair().pub.fingerprint(), other_keypair().pub.fingerprint());
}

TEST(RsaEncryptTest, RoundTrip) {
  const auto& kp = test_keypair();
  SecureRandom rng(21);
  const Bytes msg = bytes_of("session-key-16by");
  const Bytes ct = rsa_encrypt(kp.pub, msg, rng);
  EXPECT_EQ(ct.size(), kp.pub.modulus_bytes());
  const auto pt = rsa_decrypt(kp.priv, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaEncryptTest, RandomizedPadding) {
  const auto& kp = test_keypair();
  SecureRandom rng(22);
  const Bytes msg = bytes_of("hello");
  EXPECT_NE(rsa_encrypt(kp.pub, msg, rng), rsa_encrypt(kp.pub, msg, rng));
}

TEST(RsaEncryptTest, MaxLengthMessage) {
  const auto& kp = test_keypair();
  SecureRandom rng(23);
  const Bytes msg(kp.pub.modulus_bytes() - 11, 0x41);
  const auto pt = rsa_decrypt(kp.priv, rsa_encrypt(kp.pub, msg, rng));
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaEncryptTest, OverlongMessageThrows) {
  const auto& kp = test_keypair();
  SecureRandom rng(24);
  const Bytes msg(kp.pub.modulus_bytes() - 10, 0x41);
  EXPECT_THROW(rsa_encrypt(kp.pub, msg, rng), std::invalid_argument);
}

TEST(RsaEncryptTest, EmptyMessage) {
  const auto& kp = test_keypair();
  SecureRandom rng(25);
  const auto pt = rsa_decrypt(kp.priv, rsa_encrypt(kp.pub, {}, rng));
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(pt->empty());
}

TEST(RsaDecryptTest, WrongKeyFailsCleanly) {
  SecureRandom rng(26);
  const Bytes ct = rsa_encrypt(test_keypair().pub, bytes_of("secret"), rng);
  EXPECT_FALSE(rsa_decrypt(other_keypair().priv, ct).has_value());
}

TEST(RsaDecryptTest, CorruptedCiphertextFails) {
  const auto& kp = test_keypair();
  SecureRandom rng(27);
  Bytes ct = rsa_encrypt(kp.pub, bytes_of("secret"), rng);
  ct[ct.size() / 2] ^= 0xff;
  const auto pt = rsa_decrypt(kp.priv, ct);
  // Either padding fails (nullopt) or the plaintext differs; never the secret.
  if (pt.has_value()) {
    EXPECT_NE(*pt, bytes_of("secret"));
  }
}

TEST(RsaDecryptTest, WrongLengthRejected) {
  const auto& kp = test_keypair();
  EXPECT_FALSE(rsa_decrypt(kp.priv, bytes_of("short")).has_value());
}

TEST(RsaSignTest, SignVerifyRoundTrip) {
  // Also at 2048 bits, the widest key the suite covers; one fixed-seed key
  // keeps the keygen cost bounded.
  SecureRandom rng(2048);
  const RsaKeyPair wide = generate_rsa_keypair(rng, 2048);
  ASSERT_EQ(wide.pub.n.bit_length(), 2048u);
  for (const RsaKeyPair* kp : {&test_keypair(), &wide}) {
    const Bytes msg = bytes_of("user ticket body bytes");
    const Bytes sig = rsa_sign(kp->priv, msg);
    EXPECT_EQ(sig.size(), kp->pub.modulus_bytes());
    EXPECT_TRUE(rsa_verify(kp->pub, msg, sig));
  }
}

TEST(RsaSignTest, SignatureIsDeterministic) {
  const auto& kp = test_keypair();
  const Bytes msg = bytes_of("deterministic");
  EXPECT_EQ(rsa_sign(kp.priv, msg), rsa_sign(kp.priv, msg));
}

TEST(RsaSignTest, TamperedMessageFails) {
  const auto& kp = test_keypair();
  const Bytes sig = rsa_sign(kp.priv, bytes_of("original"));
  EXPECT_FALSE(rsa_verify(kp.pub, bytes_of("originaX"), sig));
}

TEST(RsaSignTest, TamperedSignatureFails) {
  const auto& kp = test_keypair();
  const Bytes msg = bytes_of("message");
  Bytes sig = rsa_sign(kp.priv, msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig));
  sig[0] ^= 0x01;
  sig.back() ^= 0x80;
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig));
}

TEST(RsaSignTest, WrongKeyFails) {
  const Bytes msg = bytes_of("message");
  const Bytes sig = rsa_sign(test_keypair().priv, msg);
  EXPECT_FALSE(rsa_verify(other_keypair().pub, msg, sig));
}

TEST(RsaSignTest, WrongLengthSignatureFails) {
  const auto& kp = test_keypair();
  EXPECT_FALSE(rsa_verify(kp.pub, bytes_of("m"), bytes_of("not-a-signature")));
  EXPECT_FALSE(rsa_verify(kp.pub, bytes_of("m"), {}));
}

TEST(RsaSignTest, EmptyMessageSignable) {
  const auto& kp = test_keypair();
  const Bytes sig = rsa_sign(kp.priv, {});
  EXPECT_TRUE(rsa_verify(kp.pub, {}, sig));
  EXPECT_FALSE(rsa_verify(kp.pub, bytes_of("x"), sig));
}

TEST(RsaBitsTest, Works1024) {
  SecureRandom rng(0xabcd);
  const RsaKeyPair kp = generate_rsa_keypair(rng, 1024);
  EXPECT_EQ(kp.pub.n.bit_length(), 1024u);
  const Bytes msg = bytes_of("bigger modulus");
  EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(kp.priv, msg)));
  const auto pt = rsa_decrypt(kp.priv, rsa_encrypt(kp.pub, msg, rng));
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaContextTest, CopiesShareAContextAndDecodedKeysBuildOneOnRequest) {
  const auto& kp = test_keypair();
  ASSERT_NE(kp.pub.mont, nullptr);
  ASSERT_NE(kp.priv.crt, nullptr);
  const RsaKeyPair copy = kp;
  EXPECT_EQ(copy.pub.mont, kp.pub.mont);
  EXPECT_EQ(copy.priv.crt, kp.priv.crt);
  EXPECT_EQ(kp.pub.with_context().mont, kp.pub.mont);
  const RsaPublicKey decoded = RsaPublicKey::decode(kp.pub.encode());
  EXPECT_EQ(decoded.mont, nullptr);
  const RsaPublicKey held = decoded.with_context();
  ASSERT_NE(held.mont, nullptr);
  EXPECT_EQ(held, decoded);
  const Bytes msg = bytes_of("held key");
  EXPECT_TRUE(rsa_verify(held, msg, rsa_sign(kp.priv, msg)));
  const RsaPublicKey even{BigUInt(4), BigUInt(3), nullptr};
  EXPECT_EQ(even.with_context().mont, nullptr);
}

TEST(RsaContextTest, KeysWithoutContextsGiveTheSameBytes) {
  // A key assembled field by field builds its contexts per call.
  const auto& kp = test_keypair();
  RsaPrivateKey bare_priv = kp.priv;
  bare_priv.crt = nullptr;
  const RsaPublicKey bare_pub{kp.pub.n, kp.pub.e, nullptr};
  const Bytes msg = bytes_of("ticket body");
  const Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_EQ(rsa_sign(bare_priv, msg), sig);
  EXPECT_TRUE(rsa_verify(bare_pub, msg, sig));
  SecureRandom a(31), b(31);
  const Bytes ct = rsa_encrypt(kp.pub, msg, a);
  EXPECT_EQ(rsa_encrypt(bare_pub, msg, b), ct);
  EXPECT_EQ(rsa_decrypt(bare_priv, ct), msg);
}

TEST(RsaContextTest, OneKeyPairSharedAcrossThreads) {
  // UM and CM farm instances on different loops sign, decrypt and verify
  // with one shared key pair: its contexts are read concurrently, and each
  // thread also copies the pair, which shares them. Every result must match
  // the single-threaded one.
  const auto& kp = test_keypair();
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<Bytes> msgs, sigs, cts;
  SecureRandom rng(404);
  for (int i = 0; i < kRounds; ++i) {
    msgs.push_back(rng.bytes(24));
    sigs.push_back(rsa_sign(kp.priv, msgs.back()));
    cts.push_back(rsa_encrypt(kp.pub, msgs.back(), rng));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const RsaKeyPair local = kp;
      for (int r = 0; r < kRounds; ++r) {
        const int i = (r + t * 7) % kRounds;
        const RsaKeyPair& key = r % 2 == 0 ? kp : local;
        if (rsa_sign(key.priv, msgs[i]) != sigs[i]) ++mismatches;
        if (rsa_decrypt(key.priv, cts[i]) != msgs[i]) ++mismatches;
        if (!rsa_verify(key.pub, msgs[i], sigs[i])) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Counts its constructions, to check that OnceCell builds once.
struct CountedBuild {
  static inline std::atomic<int> builds{0};
  explicit CountedBuild(int v) : value(v) { ++builds; }
  int value;
};

TEST(RsaContextTest, ContextsAreBuiltOnFirstUseAndOnlyOnce) {
  // A fresh key pair holds empty cells; its first operation builds the
  // context that operation needs, and the cell is shared with copies.
  SecureRandom rng(0x1a2b);
  const RsaKeyPair kp = generate_rsa_keypair(rng, 512);
  ASSERT_NE(kp.pub.mont, nullptr);
  ASSERT_NE(kp.priv.crt, nullptr);
  EXPECT_FALSE(kp.pub.mont->built());
  EXPECT_FALSE(kp.priv.crt->built());
  const RsaKeyPair copy = kp;
  const Bytes msg = bytes_of("first use");
  const Bytes sig = rsa_sign(copy.priv, msg);
  EXPECT_TRUE(kp.priv.crt->built());
  EXPECT_FALSE(kp.pub.mont->built());
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
  EXPECT_TRUE(copy.pub.mont->built());

  // A first use from 4 threads at once builds exactly one value, and every
  // thread gets it.
  constexpr int kThreads = 4;
  const OnceCell<CountedBuild> cell;
  std::atomic<int> ready{0};
  std::vector<const CountedBuild*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] = &cell.get(7);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(CountedBuild::builds.load(), 1);
  EXPECT_TRUE(cell.built());
  for (const CountedBuild* v : seen) {
    EXPECT_EQ(v, seen[0]);
    EXPECT_EQ(v->value, 7);
  }

  // The same through a fresh key pair's operations: every thread signs and
  // verifies first, and every result matches.
  const RsaKeyPair fresh = generate_rsa_keypair(rng, 512);
  std::atomic<int> mismatches{0};
  ready = 0;
  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      const Bytes s = rsa_sign(fresh.priv, msg);
      if (!rsa_verify(fresh.pub, msg, s)) ++mismatches;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(fresh.priv.crt->built());
  EXPECT_TRUE(fresh.pub.mont->built());
}

// Byte identity at the deployed key size: managers sign tickets with
// 1024-bit keys. Values recorded before the 64-bit Montgomery kernel; any
// change to keygen, padding or the private operation shows here.
TEST(RsaGoldenTest, Rsa1024KeyAndSignaturePinned) {
  SecureRandom rng(1024);
  const RsaKeyPair kp = generate_rsa_keypair(rng, 1024);
  EXPECT_EQ(util::to_hex(kp.pub.fingerprint()),
            "f046d9596feefa294807cd8046fa613fba9bff5d7ec1593349d2ac46fd6ae08a");
  EXPECT_EQ(util::to_hex(rsa_sign(kp.priv, bytes_of("channel ticket body"))),
            "595521cfafd647206fac4f286529837d8a8ce47d461324469a8c83b0df4080e1"
            "c4c205c7685e2658e5e5dbee8f41760a22b0a9ecf9ef2456aa13c701fafa2807"
            "83f0c4e9356832d83815cf9950a205972565f3e186951a86caa32e55707b3731"
            "c80f63eada2cbdd1792e55d1478d6315f062edb51fab9c10fd5e4357b10fe668");
}

// Byte identity at the client key size: clients hold 512-bit keys, so the
// CRT halves run the 256-bit (4-limb) Montgomery kernel and the public
// operations the 512-bit one. Values recorded before the mulx/adx kernel.
TEST(RsaGoldenTest, Rsa512KeySignatureAndDecryptPinned) {
  SecureRandom rng(512);
  const RsaKeyPair kp = generate_rsa_keypair(rng, 512);
  EXPECT_EQ(util::to_hex(kp.pub.fingerprint()),
            "c4b9f75a6a6e825d8238cc19a79b9f24fcc7b9c2ec76d7ae54cf485dde4d5f16");
  EXPECT_EQ(util::to_hex(rsa_sign(kp.priv, bytes_of("client login body"))),
            "045ea101fa71fb8f71685162376bbcd4120b38a8d12d4cf071f6828b0779348e"
            "31e252dde815fb43d94ea4c22e19a110a74cd76b8045cfc7135565bd8b8ee608");
  SecureRandom padding(5120);
  const Bytes ct = rsa_encrypt(kp.pub, bytes_of("session key"), padding);
  EXPECT_EQ(util::to_hex(ct),
            "7b831d13f2853db9fb2499612711b4fe57cda2f5061f63005a1c52f886994d35"
            "a68a4dfc71c76c578dcfff11ea103685cbbb91614fc60b812f9bfb4d2e1aaabe");
  EXPECT_EQ(rsa_decrypt(kp.priv, ct), bytes_of("session key"));
}

}  // namespace
}  // namespace p2pdrm::crypto
