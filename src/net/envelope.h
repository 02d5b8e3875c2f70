// Message envelope for the simulated network deployment.
//
// Every datagram on the simulated wire is an Envelope: a kind tag, a
// request id for matching responses to outstanding requests (and discarding
// stale retransmissions), and the protocol message bytes. Service frontends
// parse the payload with the core codecs; anything malformed is dropped,
// exactly as a UDP service would.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.h"
#include "util/time.h"
#include "util/wire.h"

namespace p2pdrm::net {

enum class MsgKind : std::uint8_t {
  kRedirectRequest = 1,
  kRedirectResponse = 2,
  kLogin1Request = 3,
  kLogin1Response = 4,
  kLogin2Request = 5,
  kLogin2Response = 6,
  kChannelListRequest = 7,
  kChannelListResponse = 8,
  kSwitch1Request = 9,
  kSwitch1Response = 10,
  kSwitch2Request = 11,
  kSwitch2Response = 12,
  kJoinRequest = 13,
  kJoinResponse = 14,
  kRenewalPresent = 15,
  kRenewalAck = 16,
  kKeyBlob = 17,       // content key, wrapped for one link (one-way)
  kContent = 18,       // content packet (one-way)
  kBusy = 19,          // admission control shed the request; payload is a
                       // BusyPayload with a retry-after hint
};

std::string_view to_string(MsgKind kind);

/// Decoders reject kinds outside [kRedirectRequest, kBusy].
constexpr util::EnumRange<MsgKind> wire_range(MsgKind) {
  return {MsgKind::kRedirectRequest, MsgKind::kBusy};
}

/// Payload of a kBusy envelope: the server shed this request at admission
/// (queue past its bound or past the high-water mark for sheddable kinds)
/// and tells the client when a retransmission has a chance of being
/// admitted. Never silent: every shed request gets one of these.
struct BusyPayload {
  /// Ceiling on the hint a well-formed server may send; decode rejects
  /// anything above it (a corrupt or hostile hint must not park a client
  /// forever).
  static constexpr util::SimTime kMaxRetryAfter = 10 * util::kMinute;

  util::SimTime retry_after = 0;   // earliest useful retransmit, relative
  std::uint32_t queue_depth = 0;   // server backlog when it shed (diagnostic)

  template <class Io>
  void fields(Io& io) {
    io(retry_after, queue_depth);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  /// Throws util::WireError on truncation, trailing bytes, a negative
  /// retry-after, or one above kMaxRetryAfter.
  static BusyPayload decode(util::BytesView data);
};

/// The envelope over one payload type: Envelope owns its payload (what
/// senders build), EnvelopeView reads the payload as a view into the
/// received packet (no copy; valid while the packet lives), and
/// BasicEnvelope<util::Nested<T>> writes a struct in place as the payload.
template <class Payload>
struct BasicEnvelope {
  MsgKind kind = MsgKind::kRedirectRequest;
  std::uint64_t request_id = 0;
  Payload payload;

  template <class Io>
  void fields(Io& io) {
    io(kind, request_id, payload);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  /// nullopt on malformed input, trailing bytes included (dropped at the
  /// receiver).
  static std::optional<BasicEnvelope> decode(util::BytesView data) {
    try {
      return util::decode_fields<BasicEnvelope>(data);
    } catch (const util::WireError&) {
      return std::nullopt;
    }
  }
};

using Envelope = BasicEnvelope<util::Bytes>;
using EnvelopeView = BasicEnvelope<util::BytesView>;

}  // namespace p2pdrm::net
