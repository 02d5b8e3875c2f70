// Crash flight recorder: always-on per-thread ring buffers of recent
// structured events, dumped as JSON when the process dies (or on demand).
//
// Every participating thread owns one fixed-size ring (claimed on first
// record(), never reclaimed) and is that ring's only writer, so the hot
// path is: one relaxed atomic load (armed?), copy ~90 POD bytes into the
// next slot, bump the ring's sequence. No locks, no allocation, no
// syscalls. When disarmed — the default — record() is the single load.
//
// arm(path) on the global instance installs handlers for the fatal
// signals (SIGABRT/SEGV/BUS/FPE/ILL); the handler dumps all rings to
// `path` using only async-signal-safe primitives (open/write/strcpy-level
// formatting into stack buffers — event strings are sanitized to
// printable-JSON-safe bytes at record() time, so the dump path never needs
// to escape) and then re-raises the signal with its default disposition so
// exit codes and core dumps behave as before. A dump racing live writers
// can contain one torn event per ring; a post-mortem reader tolerates
// that, and tests only dump at quiescence.
//
// Dump schema ("p2pdrm.flight.v1"):
//   {"schema":"p2pdrm.flight.v1","reason":"SIGABRT","t_us":N,"threads":[
//     {"label":"loop-0","recorded":N,"dropped":N,"events":[
//       {"t_us":N,"seq":N,"kind":"net.send","a":N,"b":N,"detail":"..."}]}]}
// `recorded` counts every event the thread ever logged; `dropped` is how
// many the ring has already overwritten (recorded - capacity, floored at
// zero); `seq` is the per-thread sequence number, so the first retained
// event has seq == dropped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace p2pdrm::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kRingCapacity = 256;
  static constexpr std::size_t kMaxThreads = 64;
  static constexpr std::size_t kKindBytes = 24;    // incl. NUL
  static constexpr std::size_t kDetailBytes = 40;  // incl. NUL
  static constexpr std::size_t kLabelBytes = 24;   // incl. NUL

  static FlightRecorder& global();

  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Start recording and remember the dump path. On the global instance
  /// this also installs the fatal-signal handlers (instances built by
  /// tests record and dump manually, signal-free).
  void arm(const std::string& path);
  /// arm() from an env var ("P2PDRM_FLIGHT_OUT"); false when unset.
  bool arm_from_env(const char* env = "P2PDRM_FLIGHT_OUT");
  /// Stop recording (rings retained for inspection); restores the previous
  /// signal dispositions if this instance installed handlers.
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  const char* dump_path() const { return path_; }

  /// Label this thread's ring; claims one if needed. No-op when disarmed.
  void attach_thread(const char* label);

  /// Log one event into the calling thread's ring. `kind` and `detail`
  /// are truncated/sanitized into fixed slots at record time; `a`/`b` are
  /// free-form operands (node ids, sequence numbers). Near-free when
  /// disarmed.
  void record(const char* kind, std::uint64_t a = 0, std::uint64_t b = 0,
              const char* detail = nullptr);

  /// Write the JSON dump to dump_path(). Async-signal-safe. Returns false
  /// when the recorder was never armed or the file cannot be written.
  bool dump(const char* reason);
  /// Same, to an already-open fd (what dump() and the tests use).
  bool dump_to_fd(int fd, const char* reason);

  // --- quiescent introspection (tests) ---

  struct EventView {
    std::int64_t t_us = 0;
    std::uint64_t seq = 0;
    std::uint64_t a = 0, b = 0;
    std::string kind;
    std::string detail;
  };
  struct ThreadView {
    std::string label;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::vector<EventView> events;  // oldest retained first
  };
  std::vector<ThreadView> snapshot() const;

  /// Disarm, forget every ring, and invalidate thread caches so the next
  /// record() re-claims. Quiescent only.
  void reset();

 private:
  struct Event {
    std::int64_t t_us = 0;
    std::uint64_t seq = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    char kind[kKindBytes] = {};
    char detail[kDetailBytes] = {};
  };
  struct Ring {
    char label[kLabelBytes] = {};
    /// Events ever recorded by the owner thread; slot = seq % capacity.
    /// Written with release so a dump sees completed slots.
    std::atomic<std::uint64_t> count{0};
    Event events[kRingCapacity];
  };

  Ring* ring_for_current_thread(const char* label);
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// A fresh value from one process-wide counter, so a thread's cached
  /// (owner, generation) never matches a recorder later built at a dead
  /// one's address, nor this one before its last reset().
  static std::uint64_t next_generation();

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> generation_{next_generation()};
  std::atomic<std::size_t> threads_{0};
  bool handlers_installed_ = false;
  char path_[256] = {};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::unique_ptr<Ring[]> rings_;  // kMaxThreads, preallocated
};

}  // namespace p2pdrm::obs
