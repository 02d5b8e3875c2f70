#include "core/content.h"

#include "crypto/hmac.h"

namespace p2pdrm::core {

ContentKey generate_content_key(crypto::SecureRandom& rng, std::uint8_t serial,
                                util::SimTime activation) {
  ContentKey k;
  k.serial = serial;
  rng.fill(k.key);
  k.nonce = rng.next_u64();
  k.activation = activation;
  return k;
}

util::Bytes SessionKey::to_bytes() const {
  util::Bytes out;
  out.reserve(cipher_key.size() + mac_key.size());
  out.insert(out.end(), cipher_key.begin(), cipher_key.end());
  out.insert(out.end(), mac_key.begin(), mac_key.end());
  return out;
}

std::optional<SessionKey> SessionKey::from_bytes(util::BytesView data) {
  if (data.size() != crypto::kAesKeySize + 32) return std::nullopt;
  SessionKey k;
  std::copy(data.begin(), data.begin() + crypto::kAesKeySize, k.cipher_key.begin());
  std::copy(data.begin() + crypto::kAesKeySize, data.end(), k.mac_key.begin());
  return k;
}

SessionKey generate_session_key(crypto::SecureRandom& rng) {
  SessionKey k;
  rng.fill(k.cipher_key);
  rng.fill(k.mac_key);
  return k;
}

util::Bytes wrap_content_key(const ContentKey& content_key, const SessionKey& session,
                             std::uint64_t wrap_nonce) {
  util::WireWriter inner;
  content_key.encode(inner);
  util::Bytes ciphertext =
      crypto::AesCtr(session.cipher_key, wrap_nonce).crypt_copy(inner.data());

  util::WireWriter w;
  w.u64(wrap_nonce);
  w.bytes(ciphertext);
  const crypto::Sha256Digest mac = crypto::hmac_sha256(session.mac_key, w.data());
  w.raw(util::BytesView(mac.data(), mac.size()));
  return w.take();
}

std::optional<ContentKey> unwrap_content_key(util::BytesView blob,
                                             const SessionKey& session) {
  try {
    util::WireReader r(blob);
    const std::uint64_t wrap_nonce = r.u64();
    const util::Bytes ciphertext = r.bytes();
    const util::BytesView authed = r.consumed();
    const util::Bytes mac = r.raw(crypto::kSha256DigestSize);
    if (!r.at_end()) return std::nullopt;

    const crypto::Sha256Digest expected = crypto::hmac_sha256(session.mac_key, authed);
    if (!util::constant_time_equal(
            util::BytesView(expected.data(), expected.size()), mac)) {
      return std::nullopt;
    }

    const util::Bytes plain =
        crypto::AesCtr(session.cipher_key, wrap_nonce).crypt_copy(ciphertext);
    util::WireReader inner(plain);
    const ContentKey key = ContentKey::decode(inner);
    if (!inner.at_end()) return std::nullopt;
    return key;
  } catch (const util::WireError&) {
    return std::nullopt;
  }
}

namespace {

/// Unique CTR stream per (key, seq): fold the packet sequence number into
/// the key's nonce base.
std::uint64_t packet_nonce(const ContentKey& key, std::uint64_t seq) {
  return key.nonce ^ (seq * 0x9e3779b97f4a7c15ull);
}

}  // namespace

ContentPacket encrypt_packet(const ContentKey& key, util::ChannelId channel,
                             std::uint64_t seq, util::BytesView plaintext) {
  ContentPacket p;
  p.channel = channel;
  p.key_serial = key.serial;
  p.seq = seq;
  p.payload = crypto::AesCtr(key.key, packet_nonce(key, seq)).crypt_copy(plaintext);
  return p;
}

std::optional<util::Bytes> decrypt_packet(const ContentKey& key,
                                          const ContentPacketView& packet) {
  if (packet.key_serial != key.serial) return std::nullopt;
  return crypto::AesCtr(key.key, packet_nonce(key, packet.seq))
      .crypt_copy(packet.payload);
}

}  // namespace p2pdrm::core
