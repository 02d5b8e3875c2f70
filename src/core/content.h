// Content encryption (§IV-E).
//
// The Channel Server encrypts the live stream with a rotating AES-128
// "content key"; each iteration carries an 8-bit serial number that is
// prepended (in clear) to every content packet so receivers know which key
// decrypts it. Content keys travel through the P2P tree pair-wise: each
// link has a symmetric session key, and a peer re-wraps the content key for
// each of its children.
//
// Wrapping is encrypt-then-MAC under the session key so a forged or
// corrupted key blob is detected rather than silently yielding garbage.
// Content packets themselves are plain AES-CTR with no MAC, so a relaying
// peer can corrupt what it forwards undetected (DESIGN.md §12).
#pragma once

#include <optional>

#include "crypto/aes128.h"
#include "crypto/chacha20.h"
#include "util/ids.h"
#include "util/time.h"
#include "util/wire.h"

namespace p2pdrm::core {

/// One iteration of a channel's evolving content key.
struct ContentKey {
  std::uint8_t serial = 0;          // 8-bit rotating serial (wraps mod 256)
  crypto::AesKey key{};             // AES-128 key material
  std::uint64_t nonce = 0;          // CTR nonce base for this key iteration
  util::SimTime activation = 0;     // when the Channel Server starts using it

  void encode(util::WireWriter& w) const;
  static ContentKey decode(util::WireReader& r);

  friend bool operator==(const ContentKey&, const ContentKey&) = default;
};

/// Generate a fresh content key with the given serial.
ContentKey generate_content_key(crypto::SecureRandom& rng, std::uint8_t serial,
                                util::SimTime activation);

/// Per-link session key: cipher key + MAC key, generated by the accepting
/// peer and sent to the joining client under its public key.
struct SessionKey {
  crypto::AesKey cipher_key{};
  std::array<std::uint8_t, 32> mac_key{};

  /// Flat 48-byte form (what gets RSA-encrypted during JOIN).
  util::Bytes to_bytes() const;
  static std::optional<SessionKey> from_bytes(util::BytesView data);

  friend bool operator==(const SessionKey&, const SessionKey&) = default;
};

SessionKey generate_session_key(crypto::SecureRandom& rng);

/// Encrypt-then-MAC a content key for one link. `wrap_nonce` must be unique
/// per wrap under the same session key (peers use a counter).
util::Bytes wrap_content_key(const ContentKey& content_key, const SessionKey& session,
                             std::uint64_t wrap_nonce);

/// Returns nullopt if the MAC fails (tampering or wrong session key).
std::optional<ContentKey> unwrap_content_key(util::BytesView blob,
                                             const SessionKey& session);

/// An encrypted media packet as forwarded through the overlay. `key_serial`
/// is in the clear (the paper: "pre-pending this serial number to each
/// content packet"); the payload is AES-128-CTR under the matching key.
struct ContentPacket {
  util::ChannelId channel = 0;
  std::uint8_t key_serial = 0;
  std::uint64_t seq = 0;
  util::Bytes payload;  // encrypted bytes

  util::Bytes encode() const;
  static ContentPacket decode(util::BytesView data);

  friend bool operator==(const ContentPacket&, const ContentPacket&) = default;
};

/// Encrypt a cleartext payload into a packet under `key` (CTR stream is
/// unique per (key, seq)).
ContentPacket encrypt_packet(const ContentKey& key, util::ChannelId channel,
                             std::uint64_t seq, util::BytesView plaintext);

/// Decrypt a packet. Returns nullopt if the packet's serial does not match
/// the key's serial.
std::optional<util::Bytes> decrypt_packet(const ContentKey& key,
                                          const ContentPacket& packet);

}  // namespace p2pdrm::core
