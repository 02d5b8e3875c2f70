// Peer node of a channel's distribution overlay (§IV-C join, §IV-E keys).
//
// Every client participating in a channel is a Peer; the Channel Server is
// the root Peer. A peer:
//   - verifies Channel Tickets of joining clients (signature, expiry,
//     NetAddr binding, channel match) — this is the *delegated* part of
//     authorization: no policy evaluation, no user attributes beyond the
//     network address,
//   - on accept, mints a per-link session key, sends it under the joiner's
//     certified public key together with the current content key wrapped
//     under the session key,
//   - relays each new content key pair-wise: decrypt from the parent link,
//     re-encrypt per child link (discarding duplicate serials, which occur
//     naturally with multi-parent sub-stream delivery),
//   - severs a child's peering when its Channel Ticket expires without a
//     renewal ticket being presented (§IV-D).
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/content.h"
#include "core/messages.h"
#include "core/ticket.h"
#include "crypto/chacha20.h"
#include "crypto/rsa.h"
#include "util/ids.h"

namespace p2pdrm::p2p {

struct PeerConfig {
  util::NodeId node = util::kInvalidNode;
  util::NetAddr addr;
  util::ChannelId channel = 0;
  /// Maximum simultaneous children (upload budget).
  std::size_t capacity = 4;
  /// Sub-streams the channel is divided into (peer-division multiplexing,
  /// §III/[6]); packet seq % substreams selects the sub-stream. 1 = plain
  /// single-stream delivery. Must be consistent across a channel's overlay.
  std::size_t substreams = 1;
};

/// A message produced for a specific neighbour (the caller transports it).
struct Outgoing {
  util::NodeId to = util::kInvalidNode;
  util::Bytes payload;
};

class Peer {
 public:
  /// `keys` is the owner's key pair (certified via its tickets); `cm_key`
  /// verifies Channel Tickets presented by joiners.
  Peer(PeerConfig config, crypto::RsaKeyPair keys, crypto::RsaPublicKey cm_key,
       crypto::SecureRandom rng);

  // --- target-peer side ---

  /// Process a join request arriving from `from` at address `conn_addr`.
  core::JoinResponse handle_join(const core::JoinRequest& req,
                                 util::NetAddr conn_addr, util::NodeId from,
                                 util::SimTime now);

  /// A child presents a renewal ticket before its old ticket expires;
  /// returns false (and does not extend) if the ticket is invalid, not a
  /// renewal, or does not match the child's identity.
  bool present_renewal(util::NodeId child, util::BytesView renewed_ticket,
                       util::SimTime now);

  /// Sever children whose Channel Ticket has expired (returns who).
  std::vector<util::NodeId> evict_expired(util::SimTime now);

  /// Drop a child (it left voluntarily or its transport died).
  void drop_child(util::NodeId child);
  /// Drop a parent link.
  void drop_parent(util::NodeId parent);

  // --- joining side ---

  /// `substream_mask` selects which sub-streams to request from this parent
  /// (bit i = sub-stream i); the default asks for everything.
  core::JoinRequest make_join_request(const core::SignedChannelTicket& ticket,
                                      std::uint32_t substream_mask = 0xffffffff) const;

  /// Complete a join against `parent` using its response; establishes the
  /// parent link and installs the delivered content key. Returns false if
  /// the response is an error or fails to decrypt.
  bool complete_join(util::NodeId parent, const core::JoinResponse& resp);

  // --- content-key distribution ---

  /// Root use (Channel Server side): wrap `key` for every child.
  std::vector<Outgoing> announce_key(const core::ContentKey& key);

  /// A wrapped key blob arrived from `from`. Unwraps it with that link's
  /// session key; if the serial is new, installs it and returns re-wrapped
  /// copies for every child. Duplicate serials are discarded (empty return).
  std::vector<Outgoing> handle_key_blob(util::NodeId from, util::BytesView blob);

  /// Install a key directly (root peer learning it from its ChannelServer).
  void install_key(const core::ContentKey& key);

  /// Called for every *new* key epoch installed from the overlay fan-out
  /// (handle_key_blob), after the install. Keys learned at join time or
  /// announced by a root do not fire it — it measures rotation delivery.
  using InstallListener = std::function<void(const core::ContentKey&)>;
  void set_install_listener(InstallListener listener) {
    install_listener_ = std::move(listener);
  }

  // --- content packets ---

  /// Decrypt a packet with the matching installed key.
  std::optional<util::Bytes> decrypt(const core::ContentPacketView& packet) const;

  /// Call `fn(child)` for each child subscribed to the sub-stream that
  /// packet sequence `seq` belongs to (seq % config().substreams).
  template <class Fn>
  void for_each_target(std::uint64_t seq, Fn&& fn) const {
    const std::size_t substreams = std::max<std::size_t>(1, config_.substreams);
    const std::uint32_t bit = 1u << (seq % substreams % 32);
    for (const auto& [node, link] : children_) {
      if (link.substream_mask & bit) fn(node);
    }
  }

  // --- introspection ---

  const PeerConfig& config() const { return config_; }
  std::size_t child_count() const { return children_.size(); }
  bool has_spare_capacity() const { return children_.size() < config_.capacity; }
  std::size_t known_key_count() const { return keys_.size(); }
  bool knows_serial(std::uint8_t serial) const { return keys_.contains(serial); }
  std::vector<util::NodeId> parents() const;
  const crypto::RsaPublicKey& public_key() const { return keys_pair_.pub; }

 private:
  struct ChildLink {
    core::SessionKey session;
    std::uint64_t wrap_counter = 0;
    util::SimTime ticket_expiry = 0;
    util::UserIN user_in = 0;
    util::NetAddr addr;
    std::uint32_t substream_mask = 0xffffffff;
  };
  struct ParentLink {
    core::SessionKey session;
  };

  /// Retain at most this many content keys (ring by installation order).
  static constexpr std::size_t kMaxKeys = 8;

  util::Bytes wrap_for_child(ChildLink& link, const core::ContentKey& key);

  PeerConfig config_;
  crypto::RsaKeyPair keys_pair_;
  crypto::RsaPublicKey cm_key_;
  crypto::SecureRandom rng_;

  std::map<util::NodeId, ChildLink> children_;
  std::map<util::NodeId, ParentLink> parents_;
  std::map<std::uint8_t, core::ContentKey> keys_;  // by serial
  std::vector<std::uint8_t> key_order_;            // installation order
  InstallListener install_listener_;
};

}  // namespace p2pdrm::p2p
