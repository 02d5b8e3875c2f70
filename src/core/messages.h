// Wire messages for the three DRM protocols (§IV-F, Fig. 4):
//   login            — LOGIN1 / LOGIN2 rounds with the User Manager,
//   channel switching — SWITCH1 / SWITCH2 rounds with the Channel Manager,
//   peer join        — JOIN round with a target peer,
// plus the Channel List fetch from the Channel Policy Manager.
//
// Each struct states its wire layout once, as a field list (`fields`), and
// encode()/decode() walk that list (util/wire.h); handlers parse untrusted
// bytes through these and treat WireError as a protocol rejection.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/attribute.h"
#include "core/challenge.h"
#include "core/policy.h"
#include "core/ticket.h"
#include "util/ids.h"

namespace p2pdrm::core {

/// Reasons a manager or peer refuses a request. Carried in responses so
/// clients can distinguish retryable failures from authorization failures.
enum class DrmError : std::uint8_t {
  kOk = 0,
  kUnknownUser = 1,
  kBadCredentials = 2,       // password / nonce / signature failure
  kAttestationFailed = 3,    // client binary checksum mismatch
  kVersionTooOld = 4,        // client below minimum version
  kBadTicket = 5,            // signature/parse failure on a presented ticket
  kTicketExpired = 6,
  kAddressMismatch = 7,      // NetAddr in ticket != connection address
  kAccessDenied = 8,         // policy evaluation rejected
  kUnknownChannel = 9,
  kRenewalRefused = 10,      // account active elsewhere (§IV-D)
  kChallengeInvalid = 11,    // stale or forged challenge echo
  kNoCapacity = 12,          // peer has no spare slots
  kWrongChannel = 13,        // peer does not carry the requested channel
  kWrongPartition = 14,      // channel not managed by this Channel Manager
  kWrongDomain = 15,         // user not assigned to this User Manager
};

/// Human-readable error name (stable, for logs and tests).
std::string_view to_string(DrmError e);

/// Decoders reject codes past kWrongDomain.
constexpr util::EnumRange<DrmError> wire_range(DrmError) {
  return {DrmError::kOk, DrmError::kWrongDomain};
}

// ---------------------------------------------------------------------------
// Login protocol (client <-> User Manager)

/// Parameters for the remote-attestation checksum: the server picks a window
/// of the client binary and a salt; the client returns
/// HMAC(salt, binary[offset, offset+length)).
struct ChecksumParams {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  std::uint64_t salt = 0;

  template <class Io>
  void fields(Io& io) {
    io(offset, length, salt);
  }
  void encode(util::WireWriter& w) const { w(*this); }
  static ChecksumParams decode(util::WireReader& r) { return r.read<ChecksumParams>(); }
  friend bool operator==(const ChecksumParams&, const ChecksumParams&) = default;
};

struct Login1Request {
  std::uint16_t version = kProtocolVersion;
  std::string email;
  crypto::RsaPublicKey client_public_key;
  std::uint32_t client_version = 0;

  template <class Io>
  void fields(Io& io) {
    io(version, email, client_public_key, client_version);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Login1Request decode(util::BytesView data) {
    return util::decode_fields<Login1Request>(data);
  }
};

/// The nonce and checksum parameters are encrypted under the secure hash of
/// the user's password (shp), so only a client that knows the password can
/// read them. `challenge` is the stateless farm-verifiable binding.
struct Login1Response {
  DrmError error = DrmError::kOk;
  util::Bytes encrypted_params;  // Enc_shp(nonce || checksum params || server time)
  Challenge challenge;

  template <class Io>
  void fields(Io& io) {
    io(error, encrypted_params, challenge);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Login1Response decode(util::BytesView data) {
    return util::decode_fields<Login1Response>(data);
  }
};

struct Login2Request {
  std::uint16_t version = kProtocolVersion;
  std::string email;
  crypto::RsaPublicKey client_public_key;
  std::uint32_t client_version = 0;
  ChecksumParams params;       // echoed (covered by the challenge MAC)
  util::Bytes checksum;        // HMAC over the binary window
  Challenge challenge;         // echoed from LOGIN1
  util::Bytes proof;           // client signature over (nonce || checksum)

  template <class Io>
  void fields(Io& io) {
    io(version, email, client_public_key, client_version, params, checksum, challenge,
       proof);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Login2Request decode(util::BytesView data) {
    return util::decode_fields<Login2Request>(data);
  }
};

struct Login2Response {
  DrmError error = DrmError::kOk;
  std::optional<SignedUserTicket> ticket;
  util::SimTime server_time = 0;       // "timing information" for clock sync
  std::uint32_t minimum_version = 0;   // enforced minimum client version

  template <class Io>
  void fields(Io& io) {
    io(error, ticket, server_time, minimum_version);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Login2Response decode(util::BytesView data) {
    return util::decode_fields<Login2Response>(data);
  }
};

// ---------------------------------------------------------------------------
// Channel switching protocol (client <-> Channel Manager)

struct Switch1Request {
  std::uint16_t version = kProtocolVersion;
  util::Bytes user_ticket;  // encoded SignedUserTicket
  /// Fresh request: the channel to watch. Renewal: the expiring Channel
  /// Ticket is presented "in lieu of the channel identification" (§IV-D).
  util::ChannelId channel_id = 0;
  util::Bytes expiring_ticket;  // encoded SignedChannelTicket; empty if fresh

  bool is_renewal() const { return !expiring_ticket.empty(); }

  template <class Io>
  void fields(Io& io) {
    io(version, user_ticket, channel_id, expiring_ticket);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Switch1Request decode(util::BytesView data) {
    return util::decode_fields<Switch1Request>(data);
  }
};

struct Switch1Response {
  DrmError error = DrmError::kOk;
  Challenge challenge;

  template <class Io>
  void fields(Io& io) {
    io(error, challenge);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Switch1Response decode(util::BytesView data) {
    return util::decode_fields<Switch1Response>(data);
  }
};

/// Address + overlay id of a peer carrying the channel.
struct PeerInfo {
  util::NodeId node = util::kInvalidNode;
  util::NetAddr addr;

  template <class Io>
  void fields(Io& io) {
    io(node, addr);
  }
  friend bool operator==(const PeerInfo&, const PeerInfo&) = default;
};

struct Switch2Request {
  std::uint16_t version = kProtocolVersion;
  util::Bytes user_ticket;
  util::ChannelId channel_id = 0;
  util::Bytes expiring_ticket;
  Challenge challenge;  // echoed from SWITCH1
  util::Bytes proof;    // client signature over the nonce

  bool is_renewal() const { return !expiring_ticket.empty(); }

  template <class Io>
  void fields(Io& io) {
    io(version, user_ticket, channel_id, expiring_ticket, challenge, proof);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Switch2Request decode(util::BytesView data) {
    return util::decode_fields<Switch2Request>(data);
  }
};

struct Switch2Response {
  DrmError error = DrmError::kOk;
  std::optional<SignedChannelTicket> ticket;
  /// Deliberately NOT covered by any signature (§IV-G1 discusses why).
  std::vector<PeerInfo> peers;

  template <class Io>
  void fields(Io& io) {
    io(error, ticket, util::counted(peers, 100000));
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static Switch2Response decode(util::BytesView data) {
    return util::decode_fields<Switch2Response>(data);
  }
};

// ---------------------------------------------------------------------------
// Peer join protocol (client <-> target peer)

struct JoinRequest {
  std::uint16_t version = kProtocolVersion;
  util::Bytes channel_ticket;  // encoded SignedChannelTicket
  /// Peer-division multiplexing: which sub-streams this child wants from
  /// this parent (bit i = sub-stream i). Default: everything — the
  /// single-parent, single-stream case.
  std::uint32_t substream_mask = 0xffffffff;

  template <class Io>
  void fields(Io& io) {
    io(version, channel_ticket, substream_mask);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static JoinRequest decode(util::BytesView data) {
    return util::decode_fields<JoinRequest>(data);
  }
};

struct JoinResponse {
  DrmError error = DrmError::kOk;
  /// Session key for this peering link, encrypted with the client's
  /// certified public key.
  util::Bytes encrypted_session_key;
  /// Current content key (serial + key material), encrypted with the
  /// session key.
  util::Bytes encrypted_content_key;

  template <class Io>
  void fields(Io& io) {
    io(error, encrypted_session_key, encrypted_content_key);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static JoinResponse decode(util::BytesView data) {
    return util::decode_fields<JoinResponse>(data);
  }
};

// ---------------------------------------------------------------------------
// Channel List fetch (client <-> Channel Policy Manager)

struct ChannelListRequest {
  std::uint16_t version = kProtocolVersion;
  util::Bytes user_ticket;
  /// Names of attributes whose utime advanced past the client's cache
  /// (empty = full fetch).
  std::vector<std::string> stale_attributes;

  template <class Io>
  void fields(Io& io) {
    io(version, user_ticket, util::counted(stale_attributes, 100000));
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static ChannelListRequest decode(util::BytesView data) {
    return util::decode_fields<ChannelListRequest>(data);
  }
};

/// Channel Manager coordinates for a partition (§V): clients learn, per
/// channel, which manager to contact and its public key.
struct PartitionInfo {
  std::uint32_t partition = 0;
  util::NetAddr manager_addr;
  util::Bytes manager_public_key;  // encoded RsaPublicKey

  template <class Io>
  void fields(Io& io) {
    io(partition, manager_addr, manager_public_key);
  }
  friend bool operator==(const PartitionInfo&, const PartitionInfo&) = default;
};

struct ChannelListResponse {
  DrmError error = DrmError::kOk;
  std::vector<ChannelRecord> channels;
  std::vector<PartitionInfo> partitions;

  template <class Io>
  void fields(Io& io) {
    io(error, util::counted(channels, 100000), util::counted(partitions, 100000));
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static ChannelListResponse decode(util::BytesView data) {
    return util::decode_fields<ChannelListResponse>(data);
  }
};

}  // namespace p2pdrm::core
