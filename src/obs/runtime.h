// Runtime telemetry for the threaded stack: event-loop stats export, the
// metric-naming convention, and a lightweight scoped-timer profiler.
//
// LoopStats is the quiescent snapshot of one ThreadTransport event loop
// (tasks run, timers fired, busy/idle wall time, queue high-water marks);
// export_loop_stats() publishes a vector of them into an obs::Registry so
// the same scrape/Prometheus path that serves protocol metrics also serves
// the runtime ones.
//
// The Profiler is deliberately minimal: begin()/end() (or the RAII Scope)
// append {name, t_us, phase} records to a per-thread buffer — no locks, no
// allocation past the buffer's growth — and aggregation happens once, at
// quiescence, into two deterministic renderings:
//
//   collapsed()     flamegraph collapsed-stack lines
//                   ("label;outer;inner <self_us>"), sorted, one per
//                   distinct stack, mergeable with standard flamegraph
//                   tooling;
//   chrome_trace()  Chrome trace_event JSON ("X" slices, one tid per
//                   registered thread), and merged_chrome_trace() splices
//                   those slices into an obs::Tracer export so protocol
//                   spans and runtime frames land on one timeline.
//
// When disabled (the default) every hook is a single relaxed atomic load;
// SimTransport runs never enable it, so deterministic outputs stay
// byte-identical. Aggregation is only safe at quiescence (threads joined),
// the same contract as Registry::counters().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/registry.h"

namespace p2pdrm::obs {

class Tracer;

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

class Profiler {
 public:
  /// Per-thread event cap; past it frames are counted as dropped, never
  /// recorded (bounded memory under runaway load).
  static constexpr std::size_t kMaxEventsPerThread = 1u << 16;

  static Profiler& global();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Enable the global profiler iff the env var is set; returns the value
  /// (the collapsed-stack output path) or "" when unset.
  static std::string enable_global_from_env(
      const char* env = "P2PDRM_PROFILE_OUT");

  /// Name this thread's buffer ("loop-0", "macro-worker-3"). A thread that
  /// records without attaching gets "thread-<n>". No-op while disabled.
  void attach_thread(const std::string& label);

  /// `name` must outlive aggregation — use string literals.
  void begin(const char* name);
  void end(const char* name);

  /// RAII frame; zero-cost (one relaxed load) when the profiler is off.
  class Scope {
   public:
    Scope(Profiler& profiler, const char* name)
        : profiler_(profiler.enabled() ? &profiler : nullptr), name_(name) {
      if (profiler_ != nullptr) profiler_->begin(name_);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->end(name_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* profiler_;
    const char* name_;
  };

  // --- aggregation (quiescent: recording threads joined or parked) ---

  /// Flamegraph collapsed-stack lines, lexicographically sorted:
  /// "label;frame;frame <self_us>\n". Deterministic for given buffers.
  std::string collapsed() const;
  /// Chrome trace_event document of all recorded frames ("X" slices,
  /// pid kChromePid, tid = thread registration order).
  std::string chrome_trace() const;
  /// The slices alone ("{...},\n{...}"), for splicing into another trace.
  std::string chrome_trace_events() const;

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;
  /// Drop all buffers and detach every thread (quiescent only).
  void reset();

  /// pid under which profiler threads appear in Chrome traces — far above
  /// any NodeId the tracer uses as a pid.
  static constexpr std::uint64_t kChromePid = 9999999;

 private:
  struct Event {
    const char* name;
    std::int64_t t_us;
    bool begin;
  };
  struct ThreadLog {
    std::string label;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
  };

  ThreadLog* log_for_current_thread(const char* fallback_label);
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// A fresh value from one process-wide counter, so a thread's cached
  /// (owner, generation) never matches a Profiler later built at a dead
  /// one's address, nor this one before its last reset().
  static std::uint64_t next_generation();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{next_generation()};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;  // guards logs_ growth; appends are thread-local
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Tracer spans and profiler frames on one Chrome-trace timeline: the
/// tracer's export with the profiler's slices spliced into the same
/// "traceEvents" array.
std::string merged_chrome_trace(const Tracer& tracer, const Profiler& profiler);

/// Tiny fopen/fwrite helper (obs cannot depend on bench_common).
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace p2pdrm::obs
