// Per-channel peer directory backing the Channel Manager's peer lists.
//
// The Channel Manager returns, with each Channel Ticket, "a list of peers
// from whom the client can obtain a channel signal". The tracker keeps the
// membership of every channel overlay with a coarse load signal (current
// child count vs capacity) and samples candidate parents, preferring peers
// with spare capacity. Sampling is randomized so the tree keeps spreading.
//
// Thread safety: every public method takes the tracker's mutex, except the
// counter reads, which load registry atomics. On a live transport the
// tracker is genuinely shared — Channel Manager handler loops sample peers
// while root join-observers push load updates and the control loop sweeps
// stale entries.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/messages.h"
#include "crypto/chacha20.h"
#include "obs/registry.h"
#include "services/channel_manager.h"
#include "util/ids.h"

namespace p2pdrm::p2p {

class Tracker : public services::PeerDirectory {
 public:
  /// Admission limits — the Sybil-flood defense. Zero values disable a
  /// limit, which is the historical (unbounded) behaviour. Re-announcing an
  /// already-known peer is a keep-alive and is never limited; the limits
  /// only apply to *new* identities.
  struct Limits {
    /// Hard cap on distinct peers per channel (0 = unbounded).
    std::size_t max_peers_per_channel = 0;
    /// At most `registration_burst` new identities per source address per
    /// `registration_window` (both must be > 0 to take effect). A flood
    /// from one source is throttled; distinct honest sources are not.
    std::size_t registration_burst = 0;
    util::SimTime registration_window = 0;
  };

  /// Directory activity is counted in `registry` (tracker.* counters; the
  /// live membership size as a gauge), which must outlive the tracker;
  /// without one the tracker counts into a registry of its own.
  explicit Tracker(crypto::SecureRandom rng, obs::Registry* registry = nullptr);

  void set_limits(Limits limits);

  /// Announce a peer carrying `channel` with the given child capacity.
  /// `now` stamps the peer's liveness (see evict_stale). Returns false when
  /// an admission limit rejected the registration (counted under
  /// tracker.rejected.*); keep-alives of known peers always succeed.
  bool register_peer(util::ChannelId channel, core::PeerInfo info, std::size_t capacity,
                     util::SimTime now = 0);
  /// Update a peer's current load (child count); doubles as a keep-alive.
  void update_load(util::ChannelId channel, util::NodeId node, std::size_t children,
                   util::SimTime now = 0);
  void unregister_peer(util::ChannelId channel, util::NodeId node);

  /// Drop every peer not heard from since `cutoff` — the defense against
  /// ungraceful departures (crash, power loss, NAT rebind): such peers
  /// never unregister, and without eviction a churn storm would leave the
  /// directory full of dead parents that every joiner must time out on.
  /// Returns the number of peers evicted across all channels.
  std::size_t evict_stale(util::SimTime cutoff);

  /// PeerDirectory: random sample preferring peers with spare capacity;
  /// falls back to loaded peers only if there are not enough spare ones
  /// (joiners will then see kNoCapacity and retry — this is what couples
  /// JOIN latency weakly to system load).
  std::vector<core::PeerInfo> sample_peers(util::ChannelId channel,
                                           std::size_t max_peers,
                                           util::NetAddr requester) override;

  std::size_t peer_count(util::ChannelId channel) const;
  /// Fraction of total capacity currently used on a channel (0 if empty).
  double utilization(util::ChannelId channel) const;

  /// Registrations rejected by the per-source rate limit / channel cap.
  std::uint64_t rejected_rate() const { return rejected_rate_.value(); }
  std::uint64_t rejected_capacity() const { return rejected_capacity_.value(); }

 private:
  struct PeerState {
    core::PeerInfo info;
    std::size_t capacity = 0;
    std::size_t children = 0;
    util::SimTime last_seen = 0;
  };

  /// Rolling per-source admission window (see Limits::registration_burst).
  struct SourceWindow {
    util::SimTime start = 0;
    std::size_t count = 0;
  };

  mutable std::mutex mu_;
  std::map<util::ChannelId, std::map<util::NodeId, PeerState>> channels_;
  Limits limits_;
  std::map<std::uint32_t, SourceWindow> source_windows_;
  crypto::SecureRandom rng_;

  /// Set when no registry was given at construction.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry& registry_;
  obs::Counter& announcements_;
  obs::Counter& load_updates_;
  obs::Counter& unregisters_;
  obs::Counter& evictions_;
  obs::Counter& samples_;
  obs::Counter& rejected_rate_;
  obs::Counter& rejected_capacity_;
  obs::Gauge& peers_;
};

}  // namespace p2pdrm::p2p
