#include "crypto/rsa.h"

#include <stdexcept>

#include "crypto/chacha20.h"
#include "util/wire.h"

namespace p2pdrm::crypto {

namespace {

// Identifies the hash inside a type-1 signature block, in the spirit of
// PKCS#1 DigestInfo (not ASN.1; this system controls both ends of the wire).
constexpr std::uint8_t kSha256Prefix[4] = {'S', '2', '5', '6'};

/// (x ^ e) mod n on the key's context, or on one built for this call.
BigUInt public_op(const RsaPublicKey& key, const BigUInt& x) {
  if (key.mont) return key.mont->get(key.n).pow(x, key.e);
  return BigUInt::mod_pow(x, key.e, key.n);
}

}  // namespace

struct RsaCrtContext {
  explicit RsaCrtContext(const RsaPrivateKey& key)
      : p(key.p), q(key.q), qinv_mont(p.to_montgomery(key.qinv)) {}

  Montgomery p;
  Montgomery q;
  BigUInt qinv_mont;  // qinv * R mod p
};

util::Bytes RsaPublicKey::encode() const {
  util::WireWriter w;
  w.bytes(n.to_bytes_be());
  w.bytes(e.to_bytes_be());
  return w.take();
}

RsaPublicKey RsaPublicKey::decode(util::BytesView data) {
  util::WireReader r(data);
  // Minimal big-endian integers only, so a key has one encoding.
  const auto integer = [&r] {
    const util::BytesView be = r.bytes_view();
    if (!be.empty() && be[0] == 0) {
      throw util::WireError("rsa key: leading zero byte");
    }
    return BigUInt::from_bytes_be(be);
  };
  RsaPublicKey out;
  out.n = integer();
  out.e = integer();
  if (!r.at_end()) throw util::WireError("rsa key: trailing bytes");
  return out;
}

RsaPublicKey RsaPublicKey::with_context() const {
  RsaPublicKey out = *this;
  if (!out.mont && !n.is_even() && n >= BigUInt(3)) {
    out.mont = std::make_shared<const OnceCell<Montgomery>>();
  }
  return out;
}

Sha256Digest RsaPublicKey::fingerprint() const { return sha256(encode()); }

BigUInt RsaPrivateKey::private_op(const BigUInt& c) const {
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q,
  //      h = qinv (m1 - m2) mod p, m = m2 + h q.
  // pow reduces c itself (Montgomery::to_montgomery), and qinv in Montgomery
  // form makes h one multiply. m2 < q < p for keys from keygen, so m2 % p
  // is a comparison.
  std::optional<RsaCrtContext> local;
  const RsaCrtContext& ctx = crt ? crt->get(*this) : local.emplace(*this);
  const BigUInt m1 = ctx.p.pow(c, dp);
  const BigUInt m2 = ctx.q.pow(c, dq);
  const BigUInt m2p = m2 % p;
  const BigUInt diff = (m1 >= m2p) ? (m1 - m2p) : (m1 + p - m2p);
  const BigUInt h = ctx.p.mul(diff, ctx.qinv_mont);
  return m2 + h * q;
}

RsaKeyPair generate_rsa_keypair(SecureRandom& rng, std::size_t bits) {
  if (bits < 256) throw std::invalid_argument("generate_rsa_keypair: bits < 256");
  const BigUInt e(65537);
  for (;;) {
    BigUInt p = generate_prime(rng, bits / 2);
    BigUInt q = generate_prime(rng, bits - bits / 2);
    if (p == q) continue;
    if (p < q) std::swap(p, q);

    const BigUInt n = p * q;
    if (n.bit_length() != bits) continue;

    const BigUInt p1 = p - BigUInt(1);
    const BigUInt q1 = q - BigUInt(1);
    const BigUInt phi = p1 * q1;
    if (BigUInt::gcd(e, phi) != BigUInt(1)) continue;

    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = BigUInt::mod_inverse(e, phi);
    priv.p = p;
    priv.q = q;
    priv.dp = priv.d % p1;
    priv.dq = priv.d % q1;
    priv.qinv = BigUInt::mod_inverse(q, p);
    priv.crt = std::make_shared<const OnceCell<RsaCrtContext>>();
    return {priv, RsaPublicKey{n, e, nullptr}.with_context()};
  }
}

util::Bytes rsa_encrypt(const RsaPublicKey& pub, util::BytesView msg,
                        SecureRandom& rng) {
  const std::size_t k = pub.modulus_bytes();
  if (msg.size() + 11 > k) {
    throw std::invalid_argument("rsa_encrypt: message too long for modulus");
  }
  // EB = 00 || 02 || nonzero-random-pad || 00 || msg
  util::Bytes eb(k);
  eb[0] = 0x00;
  eb[1] = 0x02;
  const std::size_t pad_len = k - 3 - msg.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u32());
    } while (b == 0);
    eb[2 + i] = b;
  }
  eb[2 + pad_len] = 0x00;
  std::copy(msg.begin(), msg.end(), eb.begin() + static_cast<std::ptrdiff_t>(3 + pad_len));

  return public_op(pub, BigUInt::from_bytes_be(eb)).to_bytes_be(k);
}

std::optional<util::Bytes> rsa_decrypt(const RsaPrivateKey& priv,
                                       util::BytesView ciphertext) {
  const std::size_t k = priv.modulus_bytes();
  if (ciphertext.size() != k) return std::nullopt;
  const BigUInt c = BigUInt::from_bytes_be(ciphertext);
  if (c >= priv.n) return std::nullopt;
  const util::Bytes eb = priv.private_op(c).to_bytes_be(k);

  if (eb.size() < 11 || eb[0] != 0x00 || eb[1] != 0x02) return std::nullopt;
  // Find the 0x00 separator after at least 8 pad bytes.
  std::size_t sep = 0;
  for (std::size_t i = 2; i < eb.size(); ++i) {
    if (eb[i] == 0x00) {
      sep = i;
      break;
    }
  }
  if (sep < 10) return std::nullopt;
  return util::Bytes(eb.begin() + static_cast<std::ptrdiff_t>(sep + 1), eb.end());
}

util::Bytes rsa_sign(const RsaPrivateKey& priv, util::BytesView msg) {
  const std::size_t k = priv.modulus_bytes();
  const Sha256Digest digest = sha256(msg);

  // EB = 00 || 01 || ff..ff || 00 || "S256" || digest
  const std::size_t payload = sizeof(kSha256Prefix) + digest.size();
  if (k < payload + 11) throw std::invalid_argument("rsa_sign: modulus too small");
  util::Bytes eb(k);
  eb[0] = 0x00;
  eb[1] = 0x01;
  const std::size_t pad_len = k - 3 - payload;
  for (std::size_t i = 0; i < pad_len; ++i) eb[2 + i] = 0xff;
  eb[2 + pad_len] = 0x00;
  std::copy(std::begin(kSha256Prefix), std::end(kSha256Prefix),
            eb.begin() + static_cast<std::ptrdiff_t>(3 + pad_len));
  std::copy(digest.begin(), digest.end(),
            eb.begin() + static_cast<std::ptrdiff_t>(3 + pad_len + sizeof(kSha256Prefix)));

  const BigUInt m = BigUInt::from_bytes_be(eb);
  return priv.private_op(m).to_bytes_be(k);
}

bool rsa_verify(const RsaPublicKey& pub, util::BytesView msg,
                util::BytesView signature) {
  const std::size_t k = pub.modulus_bytes();
  if (signature.size() != k) return false;
  const BigUInt s = BigUInt::from_bytes_be(signature);
  if (s >= pub.n) return false;
  const util::Bytes eb = public_op(pub, s).to_bytes_be(k);

  const Sha256Digest digest = sha256(msg);
  const std::size_t payload = sizeof(kSha256Prefix) + digest.size();
  if (k < payload + 11) return false;
  if (eb[0] != 0x00 || eb[1] != 0x01) return false;
  const std::size_t pad_len = k - 3 - payload;
  for (std::size_t i = 0; i < pad_len; ++i) {
    if (eb[2 + i] != 0xff) return false;
  }
  if (eb[2 + pad_len] != 0x00) return false;
  const util::BytesView tail = util::BytesView(eb).subspan(3 + pad_len);
  // Both halves are compared, whatever the first gives.
  const bool prefix_ok = util::constant_time_equal(tail.first(sizeof(kSha256Prefix)),
                                                   kSha256Prefix);
  const bool digest_ok =
      util::constant_time_equal(tail.subspan(sizeof(kSha256Prefix)), digest);
  return prefix_ok & digest_ok;
}

}  // namespace p2pdrm::crypto
