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

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "crypto/bignum.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace p2pdrm::crypto {

/// A value built on first use, exactly once however many threads ask at
/// the same time. Keys hold their contexts in one through a shared_ptr, so
/// every copy of a key shares the cell and what it has built.
template <class T>
class OnceCell {
 public:
  /// The value, built as T(args...) by the first call; later and
  /// concurrent calls get that one.
  template <class... Args>
  const T& get(const Args&... args) const {
    std::call_once(once_, [&] {
      value_ = std::make_unique<const T>(args...);
      built_.store(true);
    });
    return *value_;
  }
  /// Whether get() has built the value.
  bool built() const { return built_.load(); }

 private:
  mutable std::once_flag once_;
  mutable std::unique_ptr<const T> value_;
  mutable std::atomic<bool> built_{false};
};

/// RSA keys are values: make them with generate_rsa_keypair or decode, and
/// replace a key rather than edit its fields. A key from
/// generate_rsa_keypair, or a public key passed through with_context(),
/// carries a cell for the Montgomery contexts its operations run on: its
/// first operation builds them, once, and every copy shares them,
/// read-only. A key held across calls (the UM key each CM holds, the CM key
/// each peer holds) does not rebuild them per call, threads share one key
/// without a lock, and a key that is never used builds nothing. Any other
/// key (decoded from the wire, or assembled field by field) has no cell,
/// and its operations build the contexts per call: most decoded keys are
/// used once or not at all.
struct RsaPublicKey {
  BigUInt n;
  BigUInt e;
  /// Cell for the Montgomery context of n, or null.
  std::shared_ptr<const OnceCell<Montgomery>> mont;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// Wire encoding (length-prefixed minimal big-endian n and e); decode
  /// rejects any other form.
  util::Bytes encode() const;
  static RsaPublicKey decode(util::BytesView data);

  /// This key with a context cell for n, for a key that will be used many
  /// times: the key itself when it has one already or when n is even or
  /// below 3, which no operation accepts.
  RsaPublicKey with_context() const;

  /// SHA-256 of the encoding; used as a stable key identity.
  Sha256Digest fingerprint() const;

  /// Keys are equal when n and e are; the context follows from n.
  friend bool operator==(const RsaPublicKey& a, const RsaPublicKey& b) {
    return a.n == b.n && a.e == b.e;
  }
};

/// Montgomery contexts for p and q, with qinv in Montgomery form mod p.
struct RsaCrtContext;

struct RsaPrivateKey {
  BigUInt n, e, d;
  // CRT components.
  BigUInt p, q, dp, dq, qinv;
  /// Cell for the CRT contexts, or null.
  std::shared_ptr<const OnceCell<RsaCrtContext>> crt;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// c^d mod n via CRT, on the key's contexts: no BigUInt division.
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
