// Resilience report: what the chaos run did to the service, from the
// viewer's side of the wire. Aggregates every client's protocol-round
// feedback log into per-round availability, sums the clients' recovery
// counters (retransmits, failovers, re-logins, rejoins), computes rejoin
// latency percentiles, and reads the manager farms' outcome counters and
// the key pipeline from the deployment registry as one logical-manager
// view. Rendering is byte-stable: identical runs produce identical report
// strings (the determinism test diffs them directly).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/round.h"
#include "net/deployment.h"

namespace p2pdrm::fault {

/// Request counts by verdict, indexed by core::DrmError (kWrongDomain is
/// its last value).
using OutcomeCounts =
    std::array<std::uint64_t, static_cast<std::size_t>(core::DrmError::kWrongDomain) + 1>;

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

  /// Farm-wide manager ops per logical manager, from the registry's
  /// "server.outcome" family: LOGIN1+LOGIN2 for the domain, SWITCH1+SWITCH2
  /// across all partitions.
  OutcomeCounts login_ops{};
  OutcomeCounts switch_ops{};
  /// Content-key rotation pipeline across all partitions ("keys.*"):
  /// rotations issued vs epochs delivered, plus the worst peer key
  /// staleness observed.
  std::uint64_t rotations_issued = 0;
  std::uint64_t epochs_delivered = 0;
  std::int64_t max_key_staleness_us = 0;

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
