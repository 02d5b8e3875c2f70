// Network latency and server queueing models for the macro simulations.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "crypto/chacha20.h"
#include "util/time.h"

namespace p2pdrm::sim {

/// Heavy-tailed round-trip-time model: RTT = floor + lognormal(mu, sigma).
/// Residential last miles gave the production system medians of a few
/// hundred milliseconds with multi-second tails; sigma controls the tail.
struct LatencyModel {
  util::SimTime floor = 20 * util::kMillisecond;
  /// Median of the lognormal component.
  util::SimTime median = 150 * util::kMillisecond;
  double sigma = 0.8;
  /// Hard cap (protocol timeouts truncate the tail).
  util::SimTime cap = 30 * util::kSecond;

  util::SimTime sample_rtt(crypto::SecureRandom& rng) const;
  /// The same draw with log(median) passed in, for a caller that draws
  /// from one model many times and computes it once.
  util::SimTime sample_rtt(crypto::SecureRandom& rng, double log_median) const;
};

/// A farm of `servers` identical FIFO servers sharing one queue (one
/// logical manager, §V). submit() returns the departure time of a request
/// arriving at `arrival` needing `service` processing time. Arrivals must
/// be submitted in nondecreasing time order (the event loop guarantees it).
class QueueStation {
 public:
  explicit QueueStation(std::size_t servers);

  /// `queue_wait`, when non-null, receives the time the request spent
  /// waiting for a free server before service began.
  util::SimTime submit(util::SimTime arrival, util::SimTime service,
                       util::SimTime* queue_wait = nullptr);

  /// How long a request arriving at `now` would wait for a free server —
  /// the admission-control load signal, read without mutating the queue.
  util::SimTime estimated_wait(util::SimTime now) const {
    return free_at_.top() > now ? free_at_.top() - now : 0;
  }

  std::uint64_t processed() const { return processed_; }
  /// Total busy time accumulated across all servers.
  util::SimTime busy_time() const { return busy_; }
  /// Mean utilization over [0, horizon].
  double utilization(util::SimTime horizon) const;

 private:
  // Min-heap of per-server next-free times.
  std::priority_queue<util::SimTime, std::vector<util::SimTime>,
                      std::greater<util::SimTime>>
      free_at_;
  std::size_t servers_;
  std::uint64_t processed_ = 0;
  util::SimTime busy_ = 0;
};

}  // namespace p2pdrm::sim
