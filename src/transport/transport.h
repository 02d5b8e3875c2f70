// Transport: the seam beneath net::Network's send/delivery scheduling.
//
// The protocol state machines (managers, clients, peers) never talk to a
// backend directly — they schedule work and deliveries through the Network,
// which delegates to one of two Transport implementations:
//
//  * SimTransport wraps the discrete-event sim::Simulation. Single event
//    loop, virtual time, byte-identical with the pre-transport engine
//    (asserted by the same-seed golden-trace test).
//  * ThreadTransport runs one real event loop per node group on its own
//    thread, with MPSC delivery queues and monotonic-clock timers — the
//    live backend for genuine requests-per-second measurement.
//
// The confinement contract both backends honor: every task posted to the
// same group runs serialized, in post order for equal due times. Node state
// is therefore loop-confined (a node's deliveries and timers all land on
// its group) and needs no locking of its own; everything shared *across*
// groups (registries, tracers, the Network's own tables) is locked.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/time.h"

namespace p2pdrm::transport {

using Task = std::function<void()>;

/// Names a timer returned by post(), for release(). A default-constructed
/// id names no timer.
struct TimerId {
  util::SimTime when = 0;
  std::uint64_t seq = 0;
  friend auto operator<=>(const TimerId&, const TimerId&) = default;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Current time in microseconds: virtual simulation time for the sim
  /// backend, monotonic time since construction for the live backend.
  virtual util::SimTime now() const = 0;

  /// Run `task` on the event loop owning `group`, `delay` microseconds from
  /// now (delay <= 0 means "as soon as the loop gets to it"). Safe to call
  /// from any thread; tasks for one group never run concurrently. Returns
  /// an id for release() when the task is a timer (delay > 0) that the
  /// backend can drop early, else a default id.
  virtual TimerId post(std::size_t group, util::SimTime delay, Task task) = 0;

  /// A timer whose task has become a no-op (its owner re-checks its own
  /// state when the task runs) may be destroyed early, with everything it
  /// captured. ThreadTransport does so at once, so timers that outlive
  /// their purpose do not pile up at high request rates; SimTransport keeps
  /// every event, so the event schedule and same-seed traces do not change.
  /// Safe to call from any thread; an id that already ran is ignored.
  virtual void release(std::size_t group, TimerId id) = 0;

  /// Number of event loops. Group indices are taken modulo this.
  virtual std::size_t groups() const = 0;

  /// True when tasks run on real threads against the monotonic clock (and
  /// therefore only outcomes — not event interleavings — are deterministic).
  virtual bool live() const = 0;

  /// Block until now() >= t: the sim backend drains due events, the live
  /// backend sleeps while its loops work.
  virtual void run_until(util::SimTime t) = 0;

  /// Graceful stop: finish the tasks already queued, discard future timers,
  /// join every loop. After shutdown, post() drops tasks. Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace p2pdrm::transport
