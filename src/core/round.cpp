#include "core/round.h"

#include "core/messages.h"

namespace p2pdrm::core {

std::string_view to_string(Round r) {
  switch (r) {
    case Round::kLogin1: return "LOGIN1";
    case Round::kLogin2: return "LOGIN2";
    case Round::kSwitch1: return "SWITCH1";
    case Round::kSwitch2: return "SWITCH2";
    case Round::kJoin: return "JOIN";
  }
  return "?";
}

bool is_permanent_failure(DrmError err) {
  switch (err) {
    case DrmError::kUnknownUser:
    case DrmError::kBadCredentials:
    case DrmError::kAttestationFailed:
    case DrmError::kVersionTooOld:
    case DrmError::kAccessDenied:
    case DrmError::kUnknownChannel:
      return true;
    default:
      return false;
  }
}

}  // namespace p2pdrm::core
