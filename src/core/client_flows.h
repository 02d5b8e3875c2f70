// Pure client-side protocol steps, kept free of transport state so they
// can be tested alone: opening the LOGIN1 payload with the password hash,
// building the LOGIN2 answer (checksum + signature), and answering SWITCH
// challenges.
#pragma once

#include <optional>

#include "core/messages.h"
#include "crypto/rsa.h"

namespace p2pdrm::core {

/// What the client recovers from a LOGIN1 response using its password.
struct OpenedLogin1 {
  util::Bytes nonce;
  ChecksumParams params;
  util::SimTime server_time = 0;
  /// The response's challenge with the decrypted nonce filled in (the form
  /// the server expects echoed in LOGIN2).
  Challenge challenge;
};

/// Decrypt and parse the LOGIN1 payload. nullopt = wrong password or a
/// tampered response.
std::optional<OpenedLogin1> open_login1_response(const Login1Response& resp,
                                                 const std::string& password);

/// Build the LOGIN2 request: attestation checksum over `client_binary` with
/// the server-chosen params, and the private-key proof over nonce||checksum.
Login2Request build_login2_request(const OpenedLogin1& opened, const std::string& email,
                                   const crypto::RsaKeyPair& client_keys,
                                   std::uint32_t client_version,
                                   util::BytesView client_binary);

/// Build the SWITCH2 request answering a SWITCH1 challenge. `user_ticket`
/// and `expiring_ticket` must be byte-identical to the SWITCH1 request's
/// (the challenge is bound to them).
Switch2Request build_switch2_request(const Switch1Response& resp,
                                     const util::Bytes& user_ticket,
                                     util::ChannelId channel_id,
                                     const util::Bytes& expiring_ticket,
                                     const crypto::RsaPrivateKey& client_key);

}  // namespace p2pdrm::core
