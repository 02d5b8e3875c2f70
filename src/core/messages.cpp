#include "core/messages.h"

namespace p2pdrm::core {

std::string_view to_string(DrmError e) {
  switch (e) {
    case DrmError::kOk: return "ok";
    case DrmError::kUnknownUser: return "unknown-user";
    case DrmError::kBadCredentials: return "bad-credentials";
    case DrmError::kAttestationFailed: return "attestation-failed";
    case DrmError::kVersionTooOld: return "version-too-old";
    case DrmError::kBadTicket: return "bad-ticket";
    case DrmError::kTicketExpired: return "ticket-expired";
    case DrmError::kAddressMismatch: return "address-mismatch";
    case DrmError::kAccessDenied: return "access-denied";
    case DrmError::kUnknownChannel: return "unknown-channel";
    case DrmError::kRenewalRefused: return "renewal-refused";
    case DrmError::kChallengeInvalid: return "challenge-invalid";
    case DrmError::kNoCapacity: return "no-capacity";
    case DrmError::kWrongChannel: return "wrong-channel";
    case DrmError::kWrongPartition: return "wrong-partition";
    case DrmError::kWrongDomain: return "wrong-domain";
  }
  return "unknown-error";
}

}  // namespace p2pdrm::core
