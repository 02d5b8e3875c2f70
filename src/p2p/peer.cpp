#include "p2p/peer.h"

namespace p2pdrm::p2p {

using core::DrmError;

Peer::Peer(PeerConfig config, crypto::RsaKeyPair keys, crypto::RsaPublicKey cm_key,
           crypto::SecureRandom rng)
    : config_(config), keys_pair_(std::move(keys)), cm_key_(cm_key.with_context()),
      rng_(std::move(rng)) {}

core::JoinResponse Peer::handle_join(const core::JoinRequest& req,
                                     util::NetAddr conn_addr, util::NodeId from,
                                     util::SimTime now) {
  core::JoinResponse resp;

  core::SignedChannelTicket ticket;
  try {
    ticket = core::SignedChannelTicket::decode(req.channel_ticket);
  } catch (const util::WireError&) {
    resp.error = DrmError::kBadTicket;
    return resp;
  }
  // Delegated verification (§IV-C): signature, expiry, address binding, and
  // channel match — nothing else. No policy evaluation at peers.
  if (!ticket.verify(cm_key_)) {
    resp.error = DrmError::kBadTicket;
    return resp;
  }
  if (ticket.ticket.expired_at(now)) {
    resp.error = DrmError::kTicketExpired;
    return resp;
  }
  if (ticket.ticket.net_addr != conn_addr) {
    resp.error = DrmError::kAddressMismatch;
    return resp;
  }
  if (ticket.ticket.channel_id != config_.channel) {
    resp.error = DrmError::kWrongChannel;
    return resp;
  }
  if (!has_spare_capacity() && !children_.contains(from)) {
    resp.error = DrmError::kNoCapacity;
    return resp;
  }

  ChildLink link;
  link.session = core::generate_session_key(rng_);
  link.ticket_expiry = ticket.ticket.expiry_time;
  link.user_in = ticket.ticket.user_in;
  link.addr = conn_addr;
  link.substream_mask = req.substream_mask;

  resp.encrypted_session_key =
      crypto::rsa_encrypt(ticket.ticket.client_public_key, link.session.to_bytes(), rng_);
  if (!key_order_.empty()) {
    const core::ContentKey& current = keys_.at(key_order_.back());
    resp.encrypted_content_key =
        core::wrap_content_key(current, link.session, link.wrap_counter++);
  }
  children_[from] = std::move(link);
  return resp;
}

bool Peer::present_renewal(util::NodeId child, util::BytesView renewed_ticket,
                           util::SimTime now) {
  const auto it = children_.find(child);
  if (it == children_.end()) return false;

  core::SignedChannelTicket ticket;
  try {
    ticket = core::SignedChannelTicket::decode(renewed_ticket);
  } catch (const util::WireError&) {
    return false;
  }
  if (!ticket.verify(cm_key_)) return false;
  if (!ticket.ticket.renewal) return false;  // must carry the renewal bit
  if (ticket.ticket.expired_at(now)) return false;
  if (ticket.ticket.channel_id != config_.channel) return false;
  if (ticket.ticket.user_in != it->second.user_in) return false;
  if (ticket.ticket.net_addr != it->second.addr) return false;

  it->second.ticket_expiry = ticket.ticket.expiry_time;
  return true;
}

std::vector<util::NodeId> Peer::evict_expired(util::SimTime now) {
  std::vector<util::NodeId> evicted;
  for (auto it = children_.begin(); it != children_.end();) {
    if (now > it->second.ticket_expiry) {
      evicted.push_back(it->first);
      it = children_.erase(it);
    } else {
      ++it;
    }
  }
  return evicted;
}

void Peer::drop_child(util::NodeId child) { children_.erase(child); }
void Peer::drop_parent(util::NodeId parent) { parents_.erase(parent); }

core::JoinRequest Peer::make_join_request(const core::SignedChannelTicket& ticket,
                                          std::uint32_t substream_mask) const {
  core::JoinRequest req;
  req.channel_ticket = ticket.encode();
  req.substream_mask = substream_mask;
  return req;
}

bool Peer::complete_join(util::NodeId parent, const core::JoinResponse& resp) {
  if (resp.error != DrmError::kOk) return false;
  const auto session_bytes = crypto::rsa_decrypt(keys_pair_.priv, resp.encrypted_session_key);
  if (!session_bytes) return false;
  const auto session = core::SessionKey::from_bytes(*session_bytes);
  if (!session) return false;

  parents_[parent] = ParentLink{*session};
  if (!resp.encrypted_content_key.empty()) {
    const auto key = core::unwrap_content_key(resp.encrypted_content_key, *session);
    if (!key) return false;
    install_key(*key);
  }
  return true;
}

void Peer::install_key(const core::ContentKey& key) {
  if (keys_.contains(key.serial)) return;
  keys_[key.serial] = key;
  key_order_.push_back(key.serial);
  while (key_order_.size() > kMaxKeys) {
    keys_.erase(key_order_.front());
    key_order_.erase(key_order_.begin());
  }
}

util::Bytes Peer::wrap_for_child(ChildLink& link, const core::ContentKey& key) {
  return core::wrap_content_key(key, link.session, link.wrap_counter++);
}

std::vector<Outgoing> Peer::announce_key(const core::ContentKey& key) {
  install_key(key);
  std::vector<Outgoing> out;
  out.reserve(children_.size());
  for (auto& [node, link] : children_) {
    out.push_back({node, wrap_for_child(link, key)});
  }
  return out;
}

std::vector<Outgoing> Peer::handle_key_blob(util::NodeId from, util::BytesView blob) {
  const auto parent_it = parents_.find(from);
  if (parent_it == parents_.end()) return {};
  const auto key = core::unwrap_content_key(blob, parent_it->second.session);
  if (!key) return {};
  // Duplicate-serial discard: with multi-parent sub-stream delivery the same
  // key arrives once per parent; only the first copy propagates.
  if (keys_.contains(key->serial)) return {};
  install_key(*key);
  if (install_listener_) install_listener_(*key);

  std::vector<Outgoing> out;
  out.reserve(children_.size());
  for (auto& [node, link] : children_) {
    out.push_back({node, wrap_for_child(link, *key)});
  }
  return out;
}

std::optional<util::Bytes> Peer::decrypt(const core::ContentPacketView& packet) const {
  const auto it = keys_.find(packet.key_serial);
  if (it == keys_.end()) return std::nullopt;
  return core::decrypt_packet(it->second, packet);
}

std::vector<util::NodeId> Peer::parents() const {
  std::vector<util::NodeId> out;
  out.reserve(parents_.size());
  for (const auto& [node, link] : parents_) out.push_back(node);
  return out;
}

}  // namespace p2pdrm::p2p
