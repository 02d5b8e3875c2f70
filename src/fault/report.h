// Resilience report: what the chaos run did to the service, from the
// viewer's side of the wire. Aggregates every client's protocol-round
// feedback log into per-round availability, sums the clients' recovery
// counters (retransmits, failovers, re-logins, rejoins), computes rejoin
// latency percentiles, and folds the manager farms' OpsCounters into one
// logical-manager view. Rendering is byte-stable: identical runs produce
// identical report strings (the determinism test diffs them directly).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/round.h"
#include "net/deployment.h"
#include "services/metrics.h"

namespace p2pdrm::fault {

struct RoundStats {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;

  double availability() const {
    return attempts == 0
               ? 1.0
               : static_cast<double>(successes) / static_cast<double>(attempts);
  }
};

struct ResilienceReport {
  /// Indexed by core::Round (kLogin1..kJoin).
  std::array<RoundStats, core::kNumRounds> rounds{};

  std::size_t clients_total = 0;
  std::size_t clients_departed = 0;
  std::size_t clients_logged_in = 0;   // live clients holding a User Ticket
  std::size_t clients_joined = 0;      // live clients holding a Channel Ticket
  /// Live clients whose Channel Ticket is still valid at collection time —
  /// the honest session count: a client whose renewals silently died keeps
  /// its stale ticket object, but not an unexpired one.
  std::size_t clients_current = 0;

  std::uint64_t retransmits = 0;
  std::uint64_t timeout_exhaustions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t relogins = 0;
  std::uint64_t rejoins = 0;
  std::vector<util::SimTime> rejoin_latencies;  // sorted ascending

  /// Farm-wide manager ops (shared-state counters merged per logical
  /// manager: LOGIN1+LOGIN2 for the domain, SWITCH1+SWITCH2 across all
  /// partitions).
  services::OpsCounters login_ops;
  services::OpsCounters switch_ops;
  /// Content-key rotation pipeline across all partitions: rotations issued
  /// vs epochs delivered, plus the worst peer key staleness observed.
  services::OpsCounters key_ops;

  RoundStats& round(core::Round r) { return rounds[static_cast<std::size_t>(r)]; }
  const RoundStats& round(core::Round r) const {
    return rounds[static_cast<std::size_t>(r)];
  }

  /// Interpolation-free percentile (nearest-rank); 0 when no rejoins.
  util::SimTime rejoin_percentile(double p) const;
  util::SimTime rejoin_p50() const { return rejoin_percentile(0.50); }
  util::SimTime rejoin_p99() const { return rejoin_percentile(0.99); }

  static ResilienceReport collect(const net::Deployment& deployment);

  std::string to_string() const;
};

}  // namespace p2pdrm::fault
