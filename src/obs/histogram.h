// Log-bucketed latency histogram: p50/p95/p99 without storing samples.
//
// Values (microseconds of SimTime, or any positive integer quantity) are
// binned into log-linear buckets — 2^kPrecisionBits linear sub-buckets per
// power of two, the HdrHistogram layout — so the relative width of every
// bucket above 2^kPrecisionBits is at most 2^-kPrecisionBits. Quantiles are
// estimated at the bucket midpoint, which bounds the relative estimation
// error by 2^-(kPrecisionBits+1) (6.25% at the default precision of 3 bits)
// for values >= 2^kPrecisionBits. Everything is integer arithmetic:
// identical record() sequences produce identical buckets, counts, and
// quantiles on every platform.
//
// Thread safety: every operation takes the histogram's own mutex, so
// concurrent recorders on the live transport (many client loops feeding one
// "client.round.LOGIN1" histogram) are safe. There are two exceptions:
//   - record_unlocked() is the owner-thread path: no lock. Use it only on a
//     histogram that one thread owns at a time, where any other thread's
//     later access is ordered after it by some other synchronization (the
//     macro-sim's shards: a worker records inside a window, the coordinator
//     reads after the barrier's mutex hand-off). record() is "lock, then
//     record_unlocked()".
//   - buckets() returns a reference into the bucket store — call it only
//     when no recorder is running (exports and tests do).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace p2pdrm::obs {

class LatencyHistogram {
 public:
  /// Linear sub-buckets per octave = 2^kPrecisionBits.
  static constexpr std::uint32_t kPrecisionBits = 3;
  static constexpr std::uint32_t kSubBuckets = 1u << kPrecisionBits;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other);
  LatencyHistogram& operator=(const LatencyHistogram& other);

  /// Bucket index for a value (values < 1 clamp into bucket 0; the first
  /// kSubBuckets buckets hold one integer value each, exactly).
  static std::size_t bucket_index(std::int64_t value);
  /// Smallest value mapped to the bucket (0 for bucket 0).
  static std::int64_t bucket_lower(std::size_t index);
  /// One past the largest value mapped to the bucket.
  static std::int64_t bucket_upper(std::size_t index);

  void record(std::int64_t value);
  /// record() without the lock, for the one thread that owns the histogram
  /// (see the thread-safety note above).
  void record_unlocked(std::int64_t value);

  std::uint64_t count() const { std::lock_guard<std::mutex> lk(mu_); return count_; }
  std::int64_t min() const { std::lock_guard<std::mutex> lk(mu_); return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { std::lock_guard<std::mutex> lk(mu_); return count_ == 0 ? 0 : max_; }
  double sum() const { std::lock_guard<std::mutex> lk(mu_); return sum_; }
  double mean() const {
    std::lock_guard<std::mutex> lk(mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  bool empty() const { return count() == 0; }

  /// Quantile estimate (q in [0,1]; nearest-rank bucket, midpoint value),
  /// clamped into [min, max] so tail quantiles never overshoot the data.
  /// Returns 0 for an empty histogram.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Fold another histogram's buckets into this one (self-merge doubles).
  void merge(const LatencyHistogram& other);
  void reset();

  /// Raw buckets (index -> count); trailing buckets may be absent. Not
  /// synchronized — for quiescent export/test use only.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  struct Snapshot {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    std::int64_t min = 0;
    std::int64_t max = 0;
  };
  Snapshot snapshot() const;

  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace p2pdrm::obs
