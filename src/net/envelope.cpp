#include "net/envelope.h"

namespace p2pdrm::net {

std::string_view to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kRedirectRequest: return "redirect-req";
    case MsgKind::kRedirectResponse: return "redirect-resp";
    case MsgKind::kLogin1Request: return "login1-req";
    case MsgKind::kLogin1Response: return "login1-resp";
    case MsgKind::kLogin2Request: return "login2-req";
    case MsgKind::kLogin2Response: return "login2-resp";
    case MsgKind::kChannelListRequest: return "channel-list-req";
    case MsgKind::kChannelListResponse: return "channel-list-resp";
    case MsgKind::kSwitch1Request: return "switch1-req";
    case MsgKind::kSwitch1Response: return "switch1-resp";
    case MsgKind::kSwitch2Request: return "switch2-req";
    case MsgKind::kSwitch2Response: return "switch2-resp";
    case MsgKind::kJoinRequest: return "join-req";
    case MsgKind::kJoinResponse: return "join-resp";
    case MsgKind::kRenewalPresent: return "renewal-present";
    case MsgKind::kRenewalAck: return "renewal-ack";
    case MsgKind::kKeyBlob: return "key-blob";
    case MsgKind::kContent: return "content";
    case MsgKind::kBusy: return "busy";
  }
  return "?";
}

BusyPayload BusyPayload::decode(util::BytesView data) {
  const BusyPayload p = util::decode_fields<BusyPayload>(data);
  if (p.retry_after < 0 || p.retry_after > kMaxRetryAfter) {
    throw util::WireError("BusyPayload: retry-after out of range");
  }
  return p;
}

}  // namespace p2pdrm::net
