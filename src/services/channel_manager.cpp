#include "services/channel_manager.h"

#include "crypto/sha256.h"

namespace p2pdrm::services {

using core::DrmError;

void ViewingLog::record(const Entry& entry) {
  audit_.push_back(entry);
  if (!entry.renewal) {
    // Move-forward-only merge: replicas may apply the same entries in
    // different cross-origin interleavings; taking the max entry time (ties
    // to the later arrival, preserving single-stream last-writer-wins)
    // makes the renewal index converge regardless of order.
    const auto key = std::make_pair(entry.user_in, entry.channel);
    const auto it = latest_.find(key);
    if (it == latest_.end() || entry.time >= it->second.time) {
      latest_[key] = entry;
    }
  }
  maybe_rotate();
}

const ViewingLog::Entry* ViewingLog::latest(util::UserIN user,
                                            util::ChannelId channel) const {
  const auto it = latest_.find({user, channel});
  return it == latest_.end() ? nullptr : &it->second;
}

void ViewingLog::set_audit_cap(std::size_t cap) {
  audit_cap_ = cap;
  maybe_rotate();
}

bool ViewingLog::is_live_latest(const Entry& e) const {
  if (e.renewal) return false;
  const auto it = latest_.find({e.user_in, e.channel});
  return it != latest_.end() && it->second.time == e.time &&
         it->second.addr == e.addr;
}

void ViewingLog::maybe_rotate() {
  if (audit_cap_ == 0 || audit_.size() <= audit_cap_) return;
  // Hysteresis: shrink to half the cap so rotation is amortized, never
  // evicting an entry the renewal index still points at.
  std::size_t to_evict = audit_.size() - audit_cap_ / 2;
  std::vector<Entry> kept;
  kept.reserve(audit_cap_);
  for (const Entry& e : audit_) {
    if (to_evict > 0 && !is_live_latest(e)) {
      ++rotated_count_;
      if (!e.renewal) ++rotated_views_[e.channel];
      --to_evict;
    } else {
      kept.push_back(e);
    }
  }
  audit_.swap(kept);
}

std::map<util::ChannelId, std::size_t> ViewingLog::views_per_channel() const {
  std::map<util::ChannelId, std::size_t> out;
  for (const auto& [channel, count] : rotated_views_) {
    out[channel] += static_cast<std::size_t>(count);
  }
  for (const Entry& e : audit_) {
    if (!e.renewal) ++out[e.channel];
  }
  return out;
}

util::Bytes ViewingLog::encode() const {
  util::WireWriter w;
  w.u64(audit_.size());
  for (const Entry& e : audit_) w(e);
  w.u64(rotated_count_);
  w.u32(static_cast<std::uint32_t>(rotated_views_.size()));
  for (const auto& [channel, count] : rotated_views_) {
    w.u32(channel);
    w.u64(count);
  }
  return w.take();
}

ViewingLog ViewingLog::decode(util::BytesView data) {
  util::WireReader r(data);
  const std::uint64_t count = r.u64();
  // 25 bytes per entry: reject length prefixes the input cannot back.
  if (count > data.size() / 25) throw util::WireError("ViewingLog: implausible count");
  ViewingLog log;
  for (std::uint64_t i = 0; i < count; ++i) {
    log.record(r.read<Entry>());  // rebuilds the latest-entry index as a side effect
  }
  log.rotated_count_ = r.u64();
  const std::uint32_t agg_count = r.u32();
  // 12 bytes per aggregate: same implausible-length guard as for entries.
  if (agg_count > r.remaining() / 12) {
    throw util::WireError("ViewingLog: implausible aggregate count");
  }
  std::uint64_t agg_sum = 0;
  for (std::uint32_t i = 0; i < agg_count; ++i) {
    const util::ChannelId channel = r.u32();
    const std::uint64_t views = r.u64();
    if (views == 0) throw util::WireError("ViewingLog: empty aggregate");
    if (!log.rotated_views_.emplace(channel, views).second) {
      throw util::WireError("ViewingLog: duplicate aggregate channel");
    }
    agg_sum += views;
  }
  if (agg_sum > log.rotated_count_) {
    throw util::WireError("ViewingLog: aggregates exceed rotated count");
  }
  if (!r.at_end()) throw util::WireError("ViewingLog: trailing bytes");
  return log;
}

ChannelManager::ChannelManager(std::shared_ptr<ChannelManagerPartition> partition,
                               PeerDirectory* peers, crypto::SecureRandom rng)
    : partition_(std::move(partition)), log_(&partition_->log), peers_(peers),
      rng_(std::move(rng)) {}

void ChannelManager::use_local_log(ViewingLog* log) {
  log_ = log != nullptr ? log : &partition_->log;
}

void ChannelManager::update_channel_list(const std::vector<core::ChannelRecord>& list) {
  partition_->channels.clear();
  for (const core::ChannelRecord& c : list) {
    if (c.partition == partition_->config.partition) partition_->channels.emplace(c.id, c);
  }
}

util::Bytes ChannelManager::switch_binding(const util::Bytes& user_ticket_bytes,
                                           util::ChannelId channel_id,
                                           const util::Bytes& expiring_bytes) const {
  // Bind the challenge to the digest of the exact request pieces so a
  // challenge minted for one (user, channel) pair cannot serve another.
  util::WireWriter w;
  w.bytes(crypto::sha256_bytes(user_ticket_bytes));
  w.u32(channel_id);
  w.bytes(crypto::sha256_bytes(expiring_bytes));
  return w.take();
}

std::optional<DrmError> ChannelManager::validate(const util::Bytes& user_ticket_bytes,
                                                 util::ChannelId channel_id,
                                                 const util::Bytes& expiring_bytes,
                                                 util::NetAddr conn_addr,
                                                 util::SimTime now,
                                                 ValidatedRequest& out) const {
  try {
    out.user_ticket = core::SignedUserTicket::decode(user_ticket_bytes);
  } catch (const util::WireError&) {
    return DrmError::kBadTicket;
  }
  if (!out.user_ticket.verify(partition_->um_public_key)) return DrmError::kBadTicket;
  if (out.user_ticket.ticket.expired_at(now)) return DrmError::kTicketExpired;

  // The NetAddr attribute in the User Ticket must match the address the
  // request actually came from (§IV-C).
  if (!out.user_ticket.ticket.attributes.matches(
          core::kAttrNetAddr, core::AttrValue::of(util::to_string(conn_addr)), now)) {
    return DrmError::kAddressMismatch;
  }

  if (!expiring_bytes.empty()) {
    // Renewal: the expiring Channel Ticket stands in for the channel id.
    core::SignedChannelTicket expiring;
    try {
      expiring = core::SignedChannelTicket::decode(expiring_bytes);
    } catch (const util::WireError&) {
      return DrmError::kBadTicket;
    }
    if (!expiring.verify(partition_->keys.pub)) return DrmError::kBadTicket;
    if (expiring.ticket.user_in != out.user_ticket.ticket.user_in) {
      return DrmError::kBadTicket;
    }
    if (expiring.ticket.net_addr != conn_addr) return DrmError::kAddressMismatch;
    out.channel_id = expiring.ticket.channel_id;
    out.expiring = std::move(expiring);
  } else {
    out.channel_id = channel_id;
  }

  const auto ch_it = partition_->channels.find(out.channel_id);
  if (ch_it == partition_->channels.end()) return DrmError::kUnknownChannel;
  out.channel = &ch_it->second;
  return std::nullopt;
}

core::Switch1Response ChannelManager::handle_switch1(const core::Switch1Request& req,
                                                      util::NetAddr conn_addr,
                                                      util::SimTime now) {
  core::Switch1Response resp;
  ValidatedRequest validated;
  if (const auto err = validate(req.user_ticket, req.channel_id, req.expiring_ticket,
                                conn_addr, now, validated)) {
    resp.error = *err;
    return resp;
  }
  const util::Bytes nonce = rng_.bytes(core::kNonceSize);
  resp.challenge = core::make_challenge(
      partition_->farm_secret, "switch",
      switch_binding(req.user_ticket, req.channel_id, req.expiring_ticket), nonce, now);
  return resp;
}

core::Switch2Response ChannelManager::handle_switch2(const core::Switch2Request& req,
                                                     util::NetAddr conn_addr,
                                                     util::SimTime now) {
  core::Switch2Response resp;
  ValidatedRequest validated;
  if (const auto err = validate(req.user_ticket, req.channel_id, req.expiring_ticket,
                                conn_addr, now, validated)) {
    resp.error = *err;
    return resp;
  }

  if (!core::verify_challenge(
          req.challenge, partition_->farm_secret, "switch",
          switch_binding(req.user_ticket, req.channel_id, req.expiring_ticket), now,
          partition_->config.challenge_lifetime)) {
    resp.error = DrmError::kChallengeInvalid;
    return resp;
  }

  // Proof of possession of the private key certified in the User Ticket.
  if (!crypto::rsa_verify(validated.user_ticket.ticket.client_public_key,
                          req.challenge.nonce, req.proof)) {
    resp.error = DrmError::kBadCredentials;
    return resp;
  }

  // Policy evaluation over the user attributes carried by the User Ticket.
  const core::EvalResult eval = core::evaluate_policies(
      *validated.channel, validated.user_ticket.ticket.attributes, now);
  if (eval.decision != core::AccessDecision::kAccept) {
    resp.error = DrmError::kAccessDenied;
    return resp;
  }

  const util::UserIN user_in = validated.user_ticket.ticket.user_in;
  core::ChannelTicket ticket;
  ticket.user_in = user_in;
  ticket.channel_id = validated.channel->id;
  ticket.client_public_key = validated.user_ticket.ticket.client_public_key;
  ticket.net_addr = conn_addr;

  if (validated.expiring) {
    const core::ChannelTicket& old_ticket = validated.expiring->ticket;

    // Renewal only near the old ticket's expiry (§IV-D).
    if (now < old_ticket.expiry_time - partition_->config.renewal_window ||
        now > old_ticket.expiry_time + partition_->config.renewal_window) {
      resp.error = DrmError::kRenewalRefused;
      return resp;
    }

    // One-session rule: the latest fresh-issue log entry for (user, channel)
    // must carry this same address; if the account moved to a new machine,
    // the newer entry wins and this renewal is refused.
    const ViewingLog::Entry* latest = log_->latest(user_in, old_ticket.channel_id);
    if (latest == nullptr || latest->addr != conn_addr ||
        latest->addr != old_ticket.net_addr) {
      resp.error = DrmError::kRenewalRefused;
      return resp;
    }

    ticket.renewal = true;
    ticket.start_time = old_ticket.start_time;
    ticket.expiry_time = old_ticket.expiry_time + partition_->config.ticket_lifetime;
  } else {
    ticket.renewal = false;
    ticket.start_time = now;
    ticket.expiry_time = now + partition_->config.ticket_lifetime;
  }

  // A Channel Ticket can never outlive the client's User Ticket (§IV-C) —
  // this lower-bounds the lead time for deploying new viewing policies.
  ticket.expiry_time =
      std::min(ticket.expiry_time, validated.user_ticket.ticket.expiry_time);
  if (ticket.expiry_time <= now) {
    resp.error = DrmError::kTicketExpired;
    return resp;
  }

  resp.ticket = core::SignedChannelTicket::sign(ticket, partition_->keys.priv);
  const ViewingLog::Entry entry{user_in, ticket.channel_id, conn_addr, now,
                                ticket.renewal};
  log_->record(entry);
  if (viewing_sink_) viewing_sink_(entry);

  if (peers_ != nullptr) {
    resp.peers = peers_->sample_peers(ticket.channel_id,
                                      partition_->config.peer_list_size, conn_addr);
  }
  return resp;
}

}  // namespace p2pdrm::services
