// Event-driven client for the simulated network deployment.
//
// Runs the viewer's protocol flow (redirect → LOGIN1/2 → channel list →
// SWITCH1/2 → JOIN → renewals) asynchronously; completions are delivered via
// callbacks on the client's transport loop (Deployment::run_op blocks on
// one). Delivery over the lossy datagram network is the embedded
// Transmitter's job: request ids, timeouts and retransmission, BUSY defers,
// retry budgets and circuit breakers all live there, so this class sees
// every round as one request that either answers or fails. Peer-side duties
// (serving joins, relaying keys, forwarding content) are delegated to an
// embedded PeerNode, so a fleet of AsyncClients forms a real working
// overlay.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>

#include "core/round.h"
#include "net/service_nodes.h"
#include "net/transmitter.h"
#include "p2p/substream.h"

namespace p2pdrm::net {

class AsyncClient final : public Node {
 public:
  struct Config {
    std::string email;
    std::string password;
    std::uint32_t client_version = 1;
    util::Bytes client_binary;
    util::NetAddr addr;
    util::NodeId node = util::kInvalidNode;
    std::size_t peer_capacity = 4;
    std::size_t key_bits = 512;
    /// Peer-division multiplexing: how many sub-streams the channel is
    /// delivered as (1..32; the JOIN mask is 32 bits wide). With k > 1 the
    /// client stripes its subscription across up to k distinct parents
    /// (redundancy against churn and loss, §III).
    std::size_t substreams = 1;
    /// Request delivery: timeouts, retries, retry budgets and breakers.
    Transmitter::Config transmit;
    /// Operation-level resilience: when true, failed protocol rounds fail
    /// over to an alternate manager instance (fresh redirect + channel-list
    /// refetch) and a lost session re-logins and re-joins automatically.
    bool resilience = false;
    /// Well-known bootstrap (baked into the client binary, §V).
    util::NodeId redirection_node = util::kInvalidNode;
  };

  using Callback = std::function<void(core::DrmError)>;

  /// Attaches itself to the network at (config.node, config.addr).
  AsyncClient(Config config, Network& network, crypto::SecureRandom rng);
  ~AsyncClient() override;

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  // --- protocol drivers (complete via callback inside the simulation) ---

  void login(Callback done);
  void switch_channel(util::ChannelId channel, Callback done);
  void renew_channel_ticket(Callback done);

  /// Rebuild a lost session from scratch: fresh redirect (so the
  /// Redirection Manager can steer us to a healthy farm instance), full
  /// re-login, then re-switch to the channel we were watching. Retries
  /// itself with capped exponential backoff until it succeeds, the failure
  /// is permanent (bad credentials, access denied...), or the client
  /// departs. A successful recovery counts as one rejoin and records the
  /// outage-to-rejoined latency.
  void recover_session(Callback done);

  /// Self-driving ticket maintenance: after every successful switch or
  /// renewal, schedule the next Channel Ticket renewal `margin` before its
  /// expiry (re-logging in first when the User Ticket is about to lapse).
  /// This is the client behavior that keeps a long viewing session alive
  /// without user interaction (§II).
  void enable_auto_renewal(util::SimTime margin = 2 * util::kMinute);

  /// Player-style churn recovery: if no content arrives for `gap` while
  /// tuned to a channel (the parent died or the subtree starved), re-run
  /// the channel switch to get a fresh ticket and a fresh peer list.
  /// Detects total starvation only: with multi-parent sub-streams, losing
  /// one parent halves the feed without tripping this watchdog (a
  /// production player would track per-sub-stream liveness).
  void enable_starvation_recovery(util::SimTime gap = 10 * util::kSecond);

  /// Session over: detach from the network (peers sever us at ticket
  /// expiry, §IV-D). The object stays inspectable.
  void leave();
  bool departed() const { return departed_; }
  std::uint64_t starvation_recoveries() const { return starvation_recoveries_; }

  // --- resilience accounting (inputs to fault::ResilienceReport) ---

  // Transmission counters (see Transmitter::Stats).
  std::uint64_t retransmits() const { return tx_.stats().retransmits; }
  std::uint64_t timeout_exhaustions() const { return tx_.stats().timeout_exhaustions; }
  std::uint64_t busy_received() const { return tx_.stats().busy_received; }
  std::uint64_t busy_deferred_resends() const {
    return tx_.stats().busy_deferred_resends;
  }
  std::uint64_t retry_budget_exhaustions() const {
    return tx_.stats().retry_budget_exhaustions;
  }
  std::uint64_t breaker_fast_fails() const { return tx_.stats().breaker_fast_fails; }
  /// The breaker guarding `node` (null when none exists yet / disabled).
  const auto* breaker(util::NodeId node) const { return tx_.breaker(node); }
  /// Operation-level failovers (fresh redirect / channel-list refetch after
  /// a failed round).
  std::uint64_t failovers() const { return failovers_; }
  /// Automatic re-authentications performed by the recovery machinery.
  std::uint64_t relogins() const { return relogins_; }
  /// Completed session recoveries (re-login + re-join).
  std::uint64_t rejoins() const { return rejoins_; }
  /// Latency of each completed recovery, from detection to rejoined.
  const std::vector<util::SimTime>& rejoin_latencies() const {
    return rejoin_latencies_;
  }

  // --- state ---

  bool logged_in() const { return user_ticket_.has_value(); }
  const std::optional<core::SignedUserTicket>& user_ticket() const {
    return user_ticket_;
  }
  const std::optional<core::SignedChannelTicket>& channel_ticket() const {
    return channel_ticket_;
  }
  const std::vector<core::LatencySample>& feedback_log() const {
    return tx_.feedback_log();
  }
  /// The Channel List cached from the last full or partial fetch (§IV-B).
  const std::vector<core::ChannelRecord>& cached_channels() const { return channels_; }
  /// Channels the cached list's policies admit under the current User
  /// Ticket's attributes right now (empty before login).
  std::vector<util::ChannelId> viewable_channels() const;
  const Config& config() const { return config_; }
  /// The key the User Ticket certifies (§IV-B).
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }
  std::optional<util::NodeId> parent() const { return parent_; }

  /// The overlay half (null until the first successful switch).
  PeerNode* peer_node() { return peer_node_.get(); }
  std::uint64_t content_decrypted() const { return content_decrypted_; }
  std::uint64_t content_undecryptable() const { return content_undecryptable_; }
  /// Packets handed to the player in order after sub-stream reassembly.
  std::uint64_t content_in_order() const { return content_in_order_; }
  /// Sub-stream -> parent assignment (null until a striped join succeeds).
  const p2p::SubstreamRouter* router() const { return router_.get(); }

  void on_packet(const Packet& packet) override;

  /// Route this client's telemetry: rounds, request spans and SLO samples
  /// via Transmitter::bind_observability, key-epoch delivery metrics under
  /// "keys.*" in `registry`. Any may be null.
  void bind_observability(obs::Registry* registry, obs::Tracer* tracer,
                          obs::SloMonitor* slo = nullptr);

 private:
  /// Overlay fan-out delivered a rotated key epoch to our embedded peer.
  void on_key_installed(const core::ContentKey& key);
  /// Drop the cached redirect, channel list and partition map, so the next
  /// login re-resolves the User Manager and refetches the list.
  void forget_routes();

  // login continuation chain
  void start_login1(Callback done);
  void after_login2(const core::Login2Response& resp, Callback done);
  void maybe_fetch_channel_list(std::vector<std::string> stale, Callback done);

  /// SWITCH1 → SWITCH2 with the Channel Manager that serves `channel`
  /// (§IV-C). A fresh switch names the channel; a renewal presents
  /// `expiring` in its place (§IV-D). `on_ok` gets the accepted SWITCH2
  /// response.
  void switch_exchange(util::ChannelId channel, util::Bytes expiring,
                       Callback done,
                       std::function<void(core::Switch2Response)> on_ok);
  /// JOIN bookkeeping: the peer list is scanned once per join group, and
  /// group g asks its parent for the sub-streams in group_masks[g]. With
  /// substreams == 1 there is one group carrying everything; with k > 1 the
  /// subscription is striped across up to k distinct parents.
  struct JoinState {
    std::vector<core::PeerInfo> peers;
    std::vector<std::uint32_t> group_masks;  // one join group per parent slot
    std::size_t group = 0;
    std::size_t candidate = 0;
    util::SimTime started = 0;
    std::map<util::NodeId, std::uint32_t> assigned;  // parent -> mask so far
  };
  void join(std::shared_ptr<JoinState> state, Callback done);

  /// The cached partition serving `channel` (null = the list cannot route it).
  const core::PartitionInfo* partition_of(util::ChannelId channel) const;
  void schedule_auto_renewal();
  void arm_starvation_watchdog();

  // resilience machinery
  util::SimTime recovery_backoff(int attempt);
  /// Run `op`; with resilience on, a recoverable failure fails over (drop
  /// cached redirect + channel list so the next attempt re-resolves both)
  /// and retries after a backoff, up to the recovery budget.
  void run_resilient(std::function<void(Callback)> op, int attempt, Callback done);
  void recover_session_attempt(util::SimTime started, int attempt, Callback done);

  void do_login(Callback done);
  void do_switch_channel(util::ChannelId channel, Callback done);
  void do_renew_channel_ticket(Callback done);

  Config config_;
  Network& network_;
  crypto::SecureRandom rng_;
  crypto::RsaKeyPair keys_;
  /// Declared after rng_: it draws retransmission jitter from it.
  Transmitter tx_;

  /// Envelopes that do not decode, counted like the overlay half's drops.
  LazyMetric<obs::Counter> malformed_{"server.drops{malformed}"};
  obs::Counter* keys_delivered_ = nullptr;
  obs::LatencyHistogram* key_margin_hist_ = nullptr;
  obs::Gauge* key_staleness_gauge_ = nullptr;

  std::optional<services::RedirectResponse> redirect_;
  std::optional<core::SignedUserTicket> user_ticket_;
  std::optional<core::SignedUserTicket> previous_user_ticket_;
  std::optional<core::SignedChannelTicket> channel_ticket_;
  std::vector<core::ChannelRecord> channels_;
  std::vector<core::PartitionInfo> partitions_;
  std::unique_ptr<PeerNode> peer_node_;
  std::optional<util::NodeId> parent_;
  std::unique_ptr<p2p::SubstreamRouter> router_;
  std::unique_ptr<p2p::SubstreamBuffer> reassembly_;
  std::uint64_t content_in_order_ = 0;
  std::uint64_t content_decrypted_ = 0;
  std::uint64_t content_undecryptable_ = 0;

  bool auto_renew_ = false;
  util::SimTime renew_margin_ = 2 * util::kMinute;
  std::uint64_t renew_epoch_ = 0;  // invalidates stale renewal timers
  /// Atomic so a live-bench driver thread can poll departed() while the
  /// client's loop runs; all writes happen on the client's own loop.
  std::atomic<bool> departed_{false};

  bool starvation_recovery_ = false;
  bool watchdog_armed_ = false;
  util::SimTime starvation_gap_ = 10 * util::kSecond;
  util::SimTime last_content_ = 0;
  bool recovering_ = false;
  std::uint64_t starvation_recoveries_ = 0;

  /// Channel of the last successful switch (what recover_session rejoins).
  util::ChannelId current_channel_ = 0;
  bool session_recovery_active_ = false;  // one recovery loop at a time
  std::uint64_t failovers_ = 0;
  std::uint64_t relogins_ = 0;
  std::uint64_t rejoins_ = 0;
  std::vector<util::SimTime> rejoin_latencies_;
};

}  // namespace p2pdrm::net
