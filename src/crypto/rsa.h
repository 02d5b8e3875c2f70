// RSA with PKCS#1 v1.5-style padding, built on the BigUInt substrate.
//
// The DRM design uses RSA in four places:
//  - the User Manager signs User Tickets (certifying the client public key),
//  - the Channel Manager signs Channel Tickets,
//  - clients prove possession of their private key in the nonce challenges
//    of the login and channel-switch protocols,
//  - target peers encrypt the per-link session key with the joining client's
//    public key.
//
// Key size is a parameter: tests default to 512-bit keys so suites run fast;
// 1024/2048-bit keys work and are exercised by dedicated tests and benches.
#pragma once

#include <optional>

#include "crypto/bignum.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace p2pdrm::crypto {

struct RsaPublicKey {
  BigUInt n;
  BigUInt e;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// Wire encoding (length-prefixed minimal big-endian n and e); decode
  /// rejects any other form.
  util::Bytes encode() const;
  static RsaPublicKey decode(util::BytesView data);

  /// SHA-256 of the encoding; used as a stable key identity.
  Sha256Digest fingerprint() const;

  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaPrivateKey {
  BigUInt n, e, d;
  // CRT components.
  BigUInt p, q, dp, dq, qinv;

  RsaPublicKey public_key() const { return {n, e}; }
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// c^d mod n via CRT.
  BigUInt private_op(const BigUInt& c) const;
};

struct RsaKeyPair {
  RsaPrivateKey priv;
  RsaPublicKey pub;
};

/// Generate an RSA key pair with an n of exactly `bits` bits (e = 65537).
/// bits must be >= 256 (the padding needs room for a SHA-256 digest).
RsaKeyPair generate_rsa_keypair(SecureRandom& rng, std::size_t bits);

/// PKCS#1 v1.5 block type 2 encryption. msg must be at most
/// modulus_bytes - 11 bytes. Throws std::invalid_argument otherwise.
util::Bytes rsa_encrypt(const RsaPublicKey& pub, util::BytesView msg,
                        SecureRandom& rng);

/// Decrypt; returns std::nullopt when the padding check fails (wrong key or
/// corrupted ciphertext).
std::optional<util::Bytes> rsa_decrypt(const RsaPrivateKey& priv,
                                       util::BytesView ciphertext);

/// Sign SHA-256(msg) with block type 1 padding and a DigestInfo-style prefix.
util::Bytes rsa_sign(const RsaPrivateKey& priv, util::BytesView msg);

/// Verify a signature produced by rsa_sign.
bool rsa_verify(const RsaPublicKey& pub, util::BytesView msg,
                util::BytesView signature);

}  // namespace p2pdrm::crypto
