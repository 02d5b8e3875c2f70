#include "core/challenge.h"

#include "util/wire.h"

namespace p2pdrm::core {

namespace {

util::Bytes challenge_mac(util::BytesView farm_secret, std::string_view context,
                          util::BytesView binding, util::BytesView nonce,
                          util::SimTime issued_at) {
  util::WireWriter w;
  w.str(context);
  w.bytes(binding);
  w.bytes(nonce);
  w.i64(issued_at);
  const crypto::Sha256Digest mac = crypto::hmac_sha256(farm_secret, w.data());
  return util::Bytes(mac.begin(), mac.end());
}

}  // namespace

Challenge make_challenge(util::BytesView farm_secret, std::string_view context,
                         util::BytesView binding, util::BytesView nonce,
                         util::SimTime now) {
  Challenge c;
  c.nonce.assign(nonce.begin(), nonce.end());
  c.issued_at = now;
  c.mac = challenge_mac(farm_secret, context, binding, nonce, now);
  return c;
}

bool verify_challenge(const Challenge& challenge, util::BytesView farm_secret,
                      std::string_view context, util::BytesView binding,
                      util::SimTime now, util::SimTime lifetime) {
  if (challenge.nonce.size() != kNonceSize) return false;
  if (now < challenge.issued_at || now - challenge.issued_at > lifetime) return false;
  const util::Bytes expected = challenge_mac(farm_secret, context, binding,
                                             challenge.nonce, challenge.issued_at);
  return util::constant_time_equal(expected, challenge.mac);
}

}  // namespace p2pdrm::core
