// The live backend: one event loop per node group, each on its own thread.
//
// Every loop owns an MPSC ready queue (producers are arbitrary sender
// threads; the single consumer is the loop thread) and a timer map ordered
// by due time on the monotonic clock. post() from any thread enqueues;
// release() erases a timer; the loop drains due timers into the ready queue
// and runs tasks one at a time, which is what gives node state its loop
// confinement (see transport.h).
//
// Telemetry: each loop keeps lifetime counters — tasks executed, timers
// fired, busy/idle wall time, ready-deque and timer-map size high-water
// marks — plus a post-to-run scheduling-latency histogram (dequeue time
// minus the moment the task became eligible: post time for immediate
// tasks, due time for timers). Every executed task contributes exactly one
// latency sample, including tasks drained during shutdown, so the
// histogram count equals tasks_executed() once the loops have joined.
// loop_stats()/sched_latency() snapshot these under the loop locks;
// export_into() publishes them into an obs::Registry in the
// "transport.loop.*" / "transport.sched_latency_us" families (idempotent,
// so a periodic scrape tick can call it repeatedly). Loop threads register
// with the global FlightRecorder as "loop-<n>".
//
// Shutdown is graceful: each loop finishes the tasks already in its ready
// queue, discards undue timers, and joins. Tasks posted after shutdown
// began are counted, not run — a send dropped at teardown looks exactly
// like a packet lost in flight, which every protocol here tolerates.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory_resource>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/runtime.h"
#include "transport/transport.h"

namespace p2pdrm::obs {
class Registry;
}

namespace p2pdrm::transport {

class ThreadTransport final : public Transport {
 public:
  struct Config {
    /// Event loops (= node groups). 0 means "one per hardware thread,
    /// capped at 8" — enough parallelism to contend every shared table
    /// without oversubscribing CI runners.
    std::size_t loops = 0;
  };

  ThreadTransport();
  explicit ThreadTransport(Config config);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  util::SimTime now() const override;
  TimerId post(std::size_t group, util::SimTime delay, Task task) override;
  void release(std::size_t group, TimerId id) override;
  std::size_t groups() const override { return loops_.size(); }
  bool live() const override { return true; }
  void run_until(util::SimTime t) override;
  void shutdown() override;

  /// Tasks run to completion across all loops (exact after shutdown; a
  /// monotonic lower bound while the loops are running).
  std::uint64_t tasks_executed() const;
  /// Tasks refused because shutdown had already begun.
  std::uint64_t tasks_dropped() const { return dropped_.load(); }

  /// Per-loop telemetry snapshot, index order (exact after shutdown; a
  /// consistent-per-loop lower bound while running).
  std::vector<obs::LoopStats> loop_stats() const;
  /// Post-to-run scheduling latency, merged across loops. After shutdown
  /// its count equals tasks_executed(): one sample per executed task, none
  /// lost in the drain.
  obs::LatencyHistogram sched_latency() const;
  /// Publish loop stats + scheduling latency into `registry` under
  /// `prefix` (see obs::export_loop_stats). Idempotent; scrape-tick safe.
  void export_into(obs::Registry& registry,
                   const std::string& prefix = "transport") const;

 private:
  /// A ready task plus the moment it became eligible to run (post time,
  /// or the timer's due time) — the baseline for scheduling latency.
  struct Ready {
    Task task;
    util::SimTime due = 0;
  };
  struct Loop {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Ready> ready;    // MPSC: many posters, one loop thread
    // Timers by due time, FIFO among equals. Only `mu` holders touch the
    // node pool, so the packet path's timers reuse nodes instead of malloc.
    std::pmr::unsynchronized_pool_resource timer_nodes;
    std::pmr::map<TimerId, Task> timers{&timer_nodes};
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    std::uint64_t timers_fired = 0;
    std::int64_t busy_us = 0;
    std::int64_t idle_us = 0;
    std::size_t ready_peak = 0;
    std::size_t timer_peak = 0;
    bool stopping = false;
    /// Own mutex (see histogram.h), recorded outside loop.mu.
    obs::LatencyHistogram sched_latency;
    std::thread thread;
  };

  void run_loop(Loop& loop, std::size_t index);

  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex shutdown_mu_;  // serializes concurrent shutdown() calls
};

}  // namespace p2pdrm::transport
