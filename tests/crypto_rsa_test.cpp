#include <gtest/gtest.h>

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

}  // namespace
}  // namespace p2pdrm::crypto
