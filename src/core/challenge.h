// Stateless nonce challenges (§IV-F, §V).
//
// Both the User Manager and the Channel Manager challenge the client with a
// nonce that the client must return under its private key. The paper
// stresses that managers keep *no per-client state* so a farm of instances
// behind one address can each handle any step. We make the challenge
// self-contained: the manager MACs the nonce together with the request
// binding and an issue timestamp under a secret shared by the farm; any
// instance can verify the echoed challenge without having issued it.
#pragma once

#include "crypto/hmac.h"
#include "util/bytes.h"
#include "util/time.h"
#include "util/wire.h"

namespace p2pdrm::core {

constexpr std::size_t kNonceSize = 32;

struct Challenge {
  util::Bytes nonce;            // kNonceSize random bytes
  util::SimTime issued_at = 0;  // manager clock when issued
  util::Bytes mac;              // binds nonce + context + issued_at to the farm secret

  template <class Io>
  void fields(Io& io) {
    io(nonce, issued_at, mac);
  }
  void encode(util::WireWriter& w) const { w(*this); }
  static Challenge decode(util::WireReader& r) { return r.read<Challenge>(); }

  friend bool operator==(const Challenge&, const Challenge&) = default;
};

/// Create a challenge. `context` is a protocol label ("login"/"switch"),
/// `binding` ties the challenge to the specific request (e.g. email +
/// public-key fingerprint, or user-ticket digest + channel id) so a
/// challenge minted for one request cannot be replayed for another.
Challenge make_challenge(util::BytesView farm_secret, std::string_view context,
                         util::BytesView binding, util::BytesView nonce,
                         util::SimTime now);

/// Verify an echoed challenge: MAC is authentic for (context, binding) and
/// the challenge is no older than `lifetime`.
bool verify_challenge(const Challenge& challenge, util::BytesView farm_secret,
                      std::string_view context, util::BytesView binding,
                      util::SimTime now, util::SimTime lifetime);

}  // namespace p2pdrm::core
