// User Tickets and Channel Tickets (§IV-B, §IV-C, Fig. 3).
//
// A User Ticket is issued by the User Manager after login. It carries the
// user's identity, the client's (now certified) public key, a validity
// window, and the user's attributes. A Channel Ticket is issued by the
// Channel Manager after policy evaluation; it carries only the client's
// network address out of all user attributes — this is the privacy
// intermediation: peers never see the user's region, subscriptions, etc.
//
// Tickets are signed over their exact wire encoding. The Signed* wrappers
// keep the raw body bytes around so verification is performed on what was
// actually transmitted, and tampering with any field breaks the signature.
#pragma once

#include <cstdint>

#include "core/attribute.h"
#include "crypto/rsa.h"
#include "util/ids.h"
#include "util/time.h"

namespace p2pdrm::core {

/// Version stamp carried by every ticket and protocol message; bumped when
/// the wire format changes incompatibly. History: v4 added the sub-stream
/// mask to JOIN requests (peer-division multiplexing).
inline constexpr std::uint16_t kProtocolVersion = 4;

struct UserTicket {
  std::uint16_t version = kProtocolVersion;
  util::UserIN user_in = 0;
  crypto::RsaPublicKey client_public_key;
  util::SimTime start_time = 0;
  util::SimTime expiry_time = 0;
  AttributeSet attributes;

  template <class Io>
  void fields(Io& io) {
    io(version, user_in, client_public_key, start_time, expiry_time, attributes);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  /// Throws util::WireError on malformed input, trailing bytes included.
  static UserTicket decode(util::BytesView data) {
    return util::decode_fields<UserTicket>(data);
  }

  bool expired_at(util::SimTime now) const { return now > expiry_time; }

  friend bool operator==(const UserTicket&, const UserTicket&) = default;
};

struct ChannelTicket {
  std::uint16_t version = kProtocolVersion;
  util::UserIN user_in = 0;
  util::ChannelId channel_id = 0;
  crypto::RsaPublicKey client_public_key;
  util::NetAddr net_addr;
  bool renewal = false;  // the "ticket renewal bit" (§IV-D)
  util::SimTime start_time = 0;
  util::SimTime expiry_time = 0;

  template <class Io>
  void fields(Io& io) {
    io(version, user_in, channel_id, client_public_key, net_addr, renewal, start_time,
       expiry_time);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  /// Throws util::WireError on malformed input, trailing bytes included.
  static ChannelTicket decode(util::BytesView data) {
    return util::decode_fields<ChannelTicket>(data);
  }

  bool expired_at(util::SimTime now) const { return now > expiry_time; }

  friend bool operator==(const ChannelTicket&, const ChannelTicket&) = default;
};

/// A ticket plus the issuer's signature over its encoded body. The body is
/// retained verbatim: `verify` checks the signature against `body`, and
/// `decode` re-parses the ticket from `body`, so any bit flip is caught
/// either by the signature or by the parser.
template <typename TicketT>
struct Signed {
  TicketT ticket;
  util::Bytes body;       // exact bytes the signature covers
  util::Bytes signature;  // issuer's RSA signature over body

  static Signed sign(const TicketT& t, const crypto::RsaPrivateKey& issuer_key) {
    Signed out;
    out.ticket = t;
    out.body = t.encode();
    out.signature = crypto::rsa_sign(issuer_key, out.body);
    return out;
  }

  bool verify(const crypto::RsaPublicKey& issuer_key) const {
    return crypto::rsa_verify(issuer_key, body, signature);
  }

  /// On the wire: body and signature; `ticket` is parsed back from body.
  template <class Io>
  void fields(Io& io) {
    io(body, signature);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }

  static Signed decode(util::BytesView data) {
    Signed out = util::decode_fields<Signed>(data);
    out.ticket = TicketT::decode(out.body);
    return out;
  }

  friend bool operator==(const Signed&, const Signed&) = default;
};

using SignedUserTicket = Signed<UserTicket>;
using SignedChannelTicket = Signed<ChannelTicket>;

}  // namespace p2pdrm::core
