#include "p2p/tracker.h"

#include <algorithm>

namespace p2pdrm::p2p {

Tracker::Tracker(crypto::SecureRandom rng, obs::Registry* registry)
    : rng_(std::move(rng)),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>() : nullptr),
      registry_(registry == nullptr ? *owned_registry_ : *registry),
      announcements_(registry_.counter("tracker.announcements")),
      load_updates_(registry_.counter("tracker.load_updates")),
      unregisters_(registry_.counter("tracker.unregisters")),
      evictions_(registry_.counter("tracker.evictions")),
      samples_(registry_.counter("tracker.samples")),
      rejected_rate_(registry_.counter("tracker.rejected.rate")),
      rejected_capacity_(registry_.counter("tracker.rejected.capacity")),
      peers_(registry_.gauge("tracker.peers")) {}

void Tracker::set_limits(Limits limits) {
  std::lock_guard<std::mutex> lk(mu_);
  limits_ = limits;
}

bool Tracker::register_peer(util::ChannelId channel, core::PeerInfo info,
                            std::size_t capacity, util::SimTime now) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& members = channels_[channel];
  const bool fresh = !members.contains(info.node);
  if (fresh) {
    // Admission limits apply to new identities only; a keep-alive from a
    // known peer must never be throttled or the overlay would shed healthy
    // parents under attack.
    if (limits_.max_peers_per_channel > 0 &&
        members.size() >= limits_.max_peers_per_channel) {
      rejected_capacity_.inc();
      if (members.empty()) channels_.erase(channel);
      return false;
    }
    if (limits_.registration_burst > 0 && limits_.registration_window > 0) {
      SourceWindow& win = source_windows_[info.addr.ip];
      if (now >= win.start + limits_.registration_window) {
        win.start = now;
        win.count = 0;
      }
      if (win.count >= limits_.registration_burst) {
        rejected_rate_.inc();
        if (members.empty()) channels_.erase(channel);
        return false;
      }
      ++win.count;
    }
  }
  members[info.node] = PeerState{info, capacity, 0, now};
  announcements_.inc();
  if (fresh) peers_.add(1);
  return true;
}

void Tracker::update_load(util::ChannelId channel, util::NodeId node,
                          std::size_t children, util::SimTime now) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto ch_it = channels_.find(channel);
  if (ch_it == channels_.end()) return;
  const auto it = ch_it->second.find(node);
  if (it == ch_it->second.end()) return;
  it->second.children = children;
  if (now > it->second.last_seen) it->second.last_seen = now;
  load_updates_.inc();
}

void Tracker::unregister_peer(util::ChannelId channel, util::NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto ch_it = channels_.find(channel);
  if (ch_it == channels_.end()) return;
  const std::size_t erased = ch_it->second.erase(node);
  if (ch_it->second.empty()) channels_.erase(ch_it);
  if (erased > 0) {
    unregisters_.inc();
    peers_.add(-1);
  }
}

std::vector<core::PeerInfo> Tracker::sample_peers(util::ChannelId channel,
                                                  std::size_t max_peers,
                                                  util::NetAddr requester) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<core::PeerInfo> out;
  samples_.inc();
  const auto ch_it = channels_.find(channel);
  if (ch_it == channels_.end()) return out;

  std::vector<const PeerState*> spare, loaded;
  for (const auto& [node, state] : ch_it->second) {
    if (state.info.addr == requester) continue;
    (state.children < state.capacity ? spare : loaded).push_back(&state);
  }

  const auto take_random = [&](std::vector<const PeerState*>& pool) {
    while (!pool.empty() && out.size() < max_peers) {
      const std::size_t i = rng_.uniform(pool.size());
      out.push_back(pool[i]->info);
      pool[i] = pool.back();
      pool.pop_back();
    }
  };
  take_random(spare);
  take_random(loaded);
  return out;
}

std::size_t Tracker::evict_stale(util::SimTime cutoff) {
  std::lock_guard<std::mutex> lk(mu_);
  // Rate-limit windows age out with the same cutoff, so a Sybil storm does
  // not leave the source table growing without bound after it ends.
  std::erase_if(source_windows_, [this, cutoff](const auto& entry) {
    return entry.second.start + limits_.registration_window < cutoff;
  });
  std::size_t evicted = 0;
  for (auto ch_it = channels_.begin(); ch_it != channels_.end();) {
    evicted += std::erase_if(ch_it->second, [cutoff](const auto& entry) {
      return entry.second.last_seen < cutoff;
    });
    ch_it = ch_it->second.empty() ? channels_.erase(ch_it) : std::next(ch_it);
  }
  if (evicted > 0) {
    evictions_.inc(evicted);
    peers_.add(-static_cast<std::int64_t>(evicted));
  }
  return evicted;
}

std::size_t Tracker::peer_count(util::ChannelId channel) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.size();
}

double Tracker::utilization(util::ChannelId channel) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return 0.0;
  std::size_t used = 0, total = 0;
  for (const auto& [node, state] : it->second) {
    used += std::min(state.children, state.capacity);
    total += state.capacity;
  }
  return total == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(total);
}

}  // namespace p2pdrm::p2p
