// Metrics registry: named counters, gauges, and log-bucketed latency
// histograms, created on first use and held for the registry's lifetime.
//
// The registry is the one place an operator dashboard (or a bench harness)
// scrapes; components hold plain references to their metrics, so the hot
// path is a single integer bump. Names are free-form dotted strings
// ("net.packets.sent"); *families* are labelled counter sets rendered as
// "family{label}" ("server.outcome{login1-req:ok}",
// "server.outcome{switch2-req:access-denied}") — the shape per-DrmError
// operational counters use. Iteration order is the map's
// lexicographic name order, so every rendering is deterministic.
//
// Thread safety: Counter and Gauge are atomics (relaxed — they are
// statistics, not synchronization), LatencyHistogram has its own mutex, and
// the registry's find-or-create/lookup/dump paths take the registry mutex.
// References handed out stay valid (node-based map storage), so the hot
// path never touches the registry lock. The raw counters()/gauges()/
// histograms() map accessors are the one exception: they expose the map
// itself and must only be iterated when no thread is *creating* metrics
// (scrapes after a run, or steady-state where all names already exist).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace p2pdrm::obs {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Gauge& operator=(const Gauge& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raise the gauge to v if v is larger (atomic high-water mark).
  void set_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry& other);
  Registry& operator=(const Registry& other);

  /// Find-or-create. References stay valid for the registry's lifetime
  /// (node-based map storage).
  Counter& counter(const std::string& name);
  /// Labelled member of a counter family, stored as "family{label}".
  Counter& counter(const std::string& family, const std::string& label);
  Gauge& gauge(const std::string& name);
  /// Labelled member of a gauge family, stored as "family{label}" — the
  /// shape per-instance dimensions use ("server.queue.depth{3}").
  Gauge& gauge(const std::string& family, const std::string& label);
  LatencyHistogram& histogram(const std::string& name);

  /// Read-only lookups: nullptr when the metric was never created.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const LatencyHistogram* find_histogram(const std::string& name) const;

  /// A family's members in label order: (label, counter) pairs.
  std::vector<std::pair<std::string, const Counter*>> family(
      const std::string& family) const;

  /// Raw map access — iterate only when no thread is creating metrics.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  /// Zero every metric; names stay registered (references stay valid).
  void reset();

  /// Fold another registry into this one: counters add, gauges take the
  /// maximum (every gauge the sim publishes is a high-water mark), and
  /// histograms bucket-add. Metrics only present in `other` are created
  /// here. Merging the per-shard registries in shard-index order gives the
  /// same bytes regardless of how shards were scheduled onto threads.
  void merge_from(const Registry& other);

  /// Deterministic "name=value" dump, one metric per line; histograms
  /// render count/p50/p95/p99.
  std::string to_string() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace p2pdrm::obs
