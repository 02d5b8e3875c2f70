// Runtime telemetry for the threaded stack: event-loop stats export and the
// metric-naming convention.
//
// LoopStats is the quiescent snapshot of one ThreadTransport event loop
// (tasks run, timers fired, busy/idle wall time, queue high-water marks);
// export_loop_stats() publishes a vector of them into an obs::Registry so
// the same scrape/Prometheus path that serves protocol metrics also serves
// the runtime ones. Per-task and per-window wall time is timed once, where
// it happens: LoopStats::busy_us on the loops, MacroRuntimeStats in the
// sharded macro engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/registry.h"

namespace p2pdrm::obs {

/// Quiescent snapshot of one event loop's lifetime counters.
struct LoopStats {
  std::uint64_t tasks = 0;         // tasks run to completion
  std::uint64_t timers_fired = 0;  // timers promoted to the ready queue
  std::int64_t busy_us = 0;        // wall time spent inside tasks
  std::int64_t idle_us = 0;        // wall time parked in cv waits
  std::int64_t ready_peak = 0;     // ready-deque depth high-water
  std::int64_t timer_peak = 0;     // timer-heap depth high-water

  /// busy / (busy + idle); 0 when the loop never ran.
  double utilization() const {
    const double total =
        static_cast<double>(busy_us) + static_cast<double>(idle_us);
    return total <= 0 ? 0.0
                      : static_cast<double>(busy_us) / total;
  }
};

/// Publish loop stats into a registry under `prefix` (e.g. "transport"):
/// counters "<prefix>.loop.tasks{N}" / "<prefix>.loop.timers_fired{N}"
/// (delta-incremented, so repeated exports of a monotonically growing
/// source never double-count), gauges for busy/idle/peaks/utilization, and
/// optionally the merged post-to-run latency histogram as
/// "<prefix>.sched_latency_us". Safe to call from a scrape tick.
void export_loop_stats(Registry& registry, const std::string& prefix,
                       const std::vector<LoopStats>& loops,
                       const LatencyHistogram* sched_latency);

/// The repo's metric naming convention, asserted by obs_test:
///   - dot-separated segments: "subsystem.name" or deeper;
///   - the first segment is the owning subsystem, lowercase
///     ("net", "store", "transport", ...);
///   - later segments are [A-Za-z0-9_]+ (round names like LOGIN1 are
///     legitimate segments);
///   - no segment is purely numeric — per-instance dimensions belong in a
///     family label ("server.queue.depth{3}"), never in the name;
///   - at most one trailing "{label}", label chars [A-Za-z0-9_.:-];
///   - quantities carry their unit as a suffix (_us, _bytes, _permille) —
///     mechanical checking stops at the shape, the unit rule is enforced
///     by the name inventory in obs_test.cpp.
bool metric_name_ok(const std::string& name);

}  // namespace p2pdrm::obs
