// Overload protection building blocks for the networked deployment.
//
// Server side: ServiceQueue models a bounded c-server FIFO in front of a
// service node. Requests wait for a free worker instead of being handled
// instantaneously; past a hard queue bound everything is shed, and past a
// softer high-water mark only *sheddable* requests (fresh LOGIN1/LOGIN2 —
// new admissions) are shed while renewals and SWITCH rounds still queue
// (session continuity beats new admissions). Shedding is never silent: the
// node answers with a kBusy envelope carrying a retry-after hint.
//
// Client side: TokenBucket is the per-operation retry budget (BUSY-deferred
// resends spend tokens, so a saturated server cannot convert the client
// fleet into a metastable retry storm), and CircuitBreaker is the
// per-destination closed/open/half-open breaker that fast-fails requests to
// a destination that keeps timing out, probing it once per cooldown.
//
// Everything is deterministic and driven by the simulation clock; none of
// these classes draw randomness.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "util/time.h"

namespace p2pdrm::net {

/// Queue/admission parameters for one service node. The defaults keep the
/// legacy behavior exactly: workers == 0 disables the queue entirely
/// (instantaneous admission, fixed ProcessingModel delay), so existing
/// deployments and seeded tests are untouched until a config opts in.
struct OverloadPolicy {
  /// Worker servers draining the queue; 0 = no queue (legacy model).
  std::size_t workers = 0;
  /// Hard bound on waiting requests; at or past it everything is shed.
  /// 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// Soft bound: at or past this many waiting requests, sheddable requests
  /// (fresh logins) are shed while protected ones still queue. 0 = off.
  std::size_t high_water = 0;
  /// Base retry-after hint in BUSY responses; the hint grows with the
  /// backlog so a deeper queue pushes retries further out.
  util::SimTime busy_retry_after = 500 * util::kMillisecond;

  bool enabled() const { return workers > 0; }
};

/// A bounded c-server FIFO queue with priority admission control.
/// Arrivals must be submitted in nondecreasing time order (the simulation
/// event loop guarantees it).
class ServiceQueue {
 public:
  explicit ServiceQueue(OverloadPolicy policy);

  struct Decision {
    bool accepted = true;
    /// Time the request waits for a free worker (0 when one is idle).
    util::SimTime wait = 0;
    /// Retry-after hint, set when !accepted.
    util::SimTime retry_after = 0;
    /// Waiting requests at decision time (diagnostic; rides in the BUSY).
    std::size_t depth = 0;
  };

  /// Admit or shed one request of the given service time. `sheddable`
  /// marks requests that admission control may drop at the high-water mark.
  Decision admit(util::SimTime now, util::SimTime service, bool sheddable);

  /// Requests admitted but not yet in service at `now`.
  std::size_t depth(util::SimTime now) const;

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  const OverloadPolicy& policy() const { return policy_; }

 private:
  void prune(util::SimTime now) const;

  OverloadPolicy policy_;
  /// Min-heap of per-worker next-free times.
  std::priority_queue<util::SimTime, std::vector<util::SimTime>,
                      std::greater<util::SimTime>>
      free_at_;
  /// Service-start times of admitted requests, in admission order; entries
  /// <= now have left the queue. mutable: depth() prunes lazily.
  mutable std::deque<util::SimTime> starts_;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
};

/// Token-bucket retry budget: starts full, refills continuously, and every
/// withdrawal must find a whole token. capacity == 0 disables the budget
/// (every try_take succeeds — the legacy behavior).
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double capacity, double refill_per_second);

  /// Take one token at `now`; false when the budget is exhausted.
  bool try_take(util::SimTime now);
  bool unlimited() const { return capacity_ <= 0; }

 private:
  void refill(util::SimTime now);

  double capacity_ = 0;
  double refill_per_second_ = 0;
  double tokens_ = 0;
  util::SimTime updated_ = 0;
};

/// Per-destination circuit breaker. Closed: requests flow, consecutive
/// failures are counted. At `failure_threshold` the breaker opens and
/// requests fast-fail for `cooldown`; then it half-opens and lets exactly
/// one probe through — success closes it, failure re-opens for another
/// cooldown. threshold == 0 disables the breaker (always closed).
class CircuitBreaker {
 public:
  struct Policy {
    int failure_threshold = 0;
    util::SimTime cooldown = 10 * util::kSecond;
  };
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Policy policy) : policy_(policy) {}

  /// May a request be sent at `now`? Transitions open -> half-open when the
  /// cooldown has elapsed (the allowed request is the probe).
  bool allow(util::SimTime now);
  void record_success();
  void record_failure(util::SimTime now);

  State state() const { return state_; }
  std::uint64_t opens() const { return opens_; }
  std::uint64_t recloses() const { return recloses_; }

 private:
  Policy policy_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  util::SimTime opened_at_ = 0;
  bool probe_in_flight_ = false;
  std::uint64_t opens_ = 0;
  std::uint64_t recloses_ = 0;
};

}  // namespace p2pdrm::net
