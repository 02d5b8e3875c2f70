// Request transmission for one client over the lossy datagram network.
//
// Every protocol round is one idempotent request/response. The Transmitter
// delivers it — request ids, retransmission with capped exponential backoff
// and jitter, BUSY defers, per-round retry budgets, per-destination circuit
// breakers, one span per request and per attempt — and knows nothing about
// tickets: the protocol flow above it (AsyncClient) sees a response or a
// failure. Loop-confined: every call runs on the client's transport loop.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/round.h"
#include "crypto/chacha20.h"
#include "net/envelope.h"
#include "net/network.h"
#include "net/overload.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace p2pdrm::net {

class Transmitter {
 public:
  struct Config {
    /// Base timeout of the first attempt; every retransmission waits
    /// kBackoffFactor× longer than the previous one (capped at kMaxTimeout).
    util::SimTime request_timeout = 3 * util::kSecond;
    int max_retries = 4;
    /// Per-operation retry budget (token bucket, one bucket per protocol
    /// round). Both timeout retransmissions and BUSY-deferred resends spend
    /// a token; an empty bucket fails the request instead of retrying, so a
    /// saturated server cannot turn the client fleet into a retry storm.
    /// 0 = unlimited (legacy behavior).
    double retry_budget = 0;
    double retry_budget_refill_per_second = 0.5;
    /// Per-destination circuit breaker: after this many consecutive
    /// timeout exhaustions to one node, requests to it fast-fail for
    /// `breaker_cooldown`, then a single probe decides. 0 = disabled.
    int breaker_failure_threshold = 0;
    util::SimTime breaker_cooldown = 10 * util::kSecond;
  };

  static constexpr double kBackoffFactor = 2.0;
  /// Waits are stretched by up to this fraction so a fleet of clients
  /// recovering from the same outage does not retry in lockstep.
  static constexpr double kJitter = 0.1;
  static constexpr util::SimTime kMaxTimeout = 30 * util::kSecond;
  /// How many BUSY responses one request tolerates before giving up.
  static constexpr int kBusyMaxDefers = 8;

  /// Sees the response as a view into its packet, valid for the call.
  using OnResponse = std::function<void(const EnvelopeView&)>;
  using OnFail = std::function<void(core::DrmError)>;

  /// `self` is the client's node id; `rng` its generator (jitter draws
  /// interleave with the client's own).
  Transmitter(Config config, util::NodeId self, Network& network,
              crypto::SecureRandom& rng);
  /// Pending timers become no-ops.
  ~Transmitter();

  Transmitter(const Transmitter&) = delete;
  Transmitter& operator=(const Transmitter&) = delete;

  /// Send one request to `to` and wait for an envelope of kind `expect`
  /// from that node. Exactly one of the callbacks fires, after the round
  /// has been recorded — unless cancel() drops the request first.
  void send(util::NodeId to, MsgKind kind, util::Bytes payload, MsgKind expect,
            core::Round round, OnResponse on_response, OnFail on_fail);

  /// A non-peer-plane envelope from `from`: a response or a BUSY for one of
  /// our pending requests. Anything else — a stale duplicate, a kind we do
  /// not expect, a sender we did not ask — is dropped.
  void on_envelope(util::NodeId from, const EnvelopeView& env);

  /// Drop every pending request without calling its on_fail (the session
  /// is over, nobody is listening); their timers find nothing.
  void cancel();

  /// Schedule an event on the client's loop tied to this object's lifetime.
  /// Transport timers may still fire after the client is destroyed (churn!),
  /// so a raw [this] capture would dangle; the event is silently dropped
  /// instead.
  transport::TimerId schedule(util::SimTime delay, std::function<void()> action);

  /// Append a round to the feedback log; a success also feeds the round
  /// histogram and the SLO monitor.
  void record(core::Round round, util::SimTime started, bool success);

  /// Route telemetry: per-round histograms "client.round.<NAME>" and the
  /// client.* counters into `registry`, request spans (one child span per
  /// attempt) into `tracer`, successful round latencies into `slo`. Any may
  /// be null.
  void bind_observability(obs::Registry* registry, obs::Tracer* tracer,
                          obs::SloMonitor* slo);
  obs::Registry* registry() const { return registry_; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Accounting across all requests (inputs to fault::ResilienceReport).
  struct Stats {
    std::uint64_t retransmits = 0;               // packet-level
    std::uint64_t timeout_exhaustions = 0;       // retries drained, no answer
    std::uint64_t busy_received = 0;             // BUSY answers received
    std::uint64_t busy_deferred_resends = 0;     // resends after a BUSY
    std::uint64_t retry_budget_exhaustions = 0;  // failed: round budget dry
    std::uint64_t breaker_fast_fails = 0;        // failed: breaker open
  };
  const Stats& stats() const { return stats_; }
  const std::vector<core::LatencySample>& feedback_log() const { return feedback_; }
  /// The breaker guarding `node` (null when none exists yet / disabled).
  const CircuitBreaker* breaker(util::NodeId node) const {
    const auto it = breakers_.find(node);
    return it == breakers_.end() ? nullptr : &it->second;
  }

 private:
  struct Pending {
    MsgKind expect;
    util::NodeId to = util::kInvalidNode;
    Buffer wire;  // full envelope, shared by every retransmission
    int retries_left = 0;
    int busy_defers = 0;        // BUSY responses absorbed so far
    std::uint64_t attempt = 0;  // invalidates stale timeout events
    transport::TimerId timeout = {};  // the armed timeout, released once moot
    core::Round round;
    util::SimTime started = 0;
    OnResponse on_response;
    OnFail on_fail;
    obs::SpanId span = 0;          // the whole request (all attempts)
    obs::SpanId attempt_span = 0;  // the transmission currently in flight
  };
  using PendingMap = std::map<std::uint64_t, Pending>;

  /// (Re)transmit the request's wire bytes and arm its next timeout.
  void transmit(std::uint64_t request_id, const Pending& pending);
  void arm_timeout(std::uint64_t request_id);
  /// A BUSY answered `it`: resend after its retry-after hint, or fail when
  /// the request is out of defers or the round's retry budget is dry.
  void handle_busy(PendingMap::iterator it, const EnvelopeView& env);
  /// Open a fresh attempt span; hops and serves parent under it.
  void begin_attempt_span(std::uint64_t request_id, Pending& pending);
  /// End the request's spans with the final outcome and drop its binding.
  void close_request_spans(std::uint64_t request_id, Pending& pending, bool ok,
                           const char* outcome);
  /// Drop `it`, record the failed round and call on_fail(kNoCapacity).
  void fail(PendingMap::iterator it, const char* outcome);
  /// Spend one retry token for `round`; false = budget dry (counted).
  bool spend_retry_token(core::Round round);
  /// The breaker guarding `node` (created on first use); null if disabled.
  CircuitBreaker* breaker_for(util::NodeId node);
  void count(const char* name);

  Config config_;
  util::NodeId self_;
  Network& network_;
  crypto::SecureRandom& rng_;

  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::SloMonitor* slo_ = nullptr;
  obs::LatencyHistogram* round_hist_[core::kNumRounds] = {};

  PendingMap pending_;
  std::uint64_t next_request_id_ = 1;
  /// One retry budget per protocol round.
  TokenBucket retry_budgets_[core::kNumRounds];
  /// One breaker per destination we have sent to (created on first send).
  std::map<util::NodeId, CircuitBreaker> breakers_;
  std::vector<core::LatencySample> feedback_;

  Stats stats_;

  /// Cleared by the destructor; pending timers hold a copy and no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace p2pdrm::net
