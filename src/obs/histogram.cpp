#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace p2pdrm::obs {

std::size_t LatencyHistogram::bucket_index(std::int64_t value) {
  if (value < 1) return 0;
  const std::uint64_t v = static_cast<std::uint64_t>(value);
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  // Octave = position of the MSB; sub-bucket = the kPrecisionBits bits
  // below it. Octave kPrecisionBits starts at index kSubBuckets, and each
  // octave contributes kSubBuckets buckets.
  const std::uint32_t msb = 63u - static_cast<std::uint32_t>(std::countl_zero(v));
  const std::uint64_t sub = (v >> (msb - kPrecisionBits)) & (kSubBuckets - 1);
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(msb - kPrecisionBits + 1) << kPrecisionBits) + sub);
}

std::int64_t LatencyHistogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return static_cast<std::int64_t>(index);
  const std::uint64_t block = static_cast<std::uint64_t>(index) >> kPrecisionBits;
  const std::uint64_t sub = static_cast<std::uint64_t>(index) & (kSubBuckets - 1);
  return static_cast<std::int64_t>((kSubBuckets + sub) << (block - 1));
}

std::int64_t LatencyHistogram::bucket_upper(std::size_t index) {
  return bucket_lower(index + 1);
}

LatencyHistogram::LatencyHistogram(const LatencyHistogram& other) {
  const Snapshot s = other.snapshot();
  buckets_ = s.buckets;
  count_ = s.count;
  sum_ = s.sum;
  min_ = s.min;
  max_ = s.max;
}

LatencyHistogram& LatencyHistogram::operator=(const LatencyHistogram& other) {
  if (this == &other) return *this;
  const Snapshot s = other.snapshot();
  std::lock_guard<std::mutex> lk(mu_);
  buckets_ = s.buckets;
  count_ = s.count;
  sum_ = s.sum;
  min_ = s.min;
  max_ = s.max;
  return *this;
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return Snapshot{buckets_, count_, sum_, min_, max_};
}

void LatencyHistogram::record(std::int64_t value) {
  std::lock_guard<std::mutex> lk(mu_);
  record_unlocked(value);
}

void LatencyHistogram::record_unlocked(std::int64_t value) {
  const std::int64_t clamped = std::max<std::int64_t>(value, 0);
  const std::size_t index = bucket_index(clamped);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  if (count_ == 0) {
    min_ = max_ = clamped;
  } else {
    min_ = std::min(min_, clamped);
    max_ = std::max(max_, clamped);
  }
  ++count_;
  sum_ += static_cast<double>(clamped);
}

double LatencyHistogram::quantile(double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (count_ == 0) return 0.0;
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches rank.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped_q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      const double mid = (static_cast<double>(bucket_lower(i)) +
                          static_cast<double>(bucket_upper(i))) /
                         2.0;
      return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // Snapshot first (other's lock only), then fold under ours: no lock-order
  // cycle between two histograms, and self-merge stays correct.
  const Snapshot s = other.snapshot();
  if (s.count == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (s.buckets.size() > buckets_.size()) buckets_.resize(s.buckets.size(), 0);
  for (std::size_t i = 0; i < s.buckets.size(); ++i) buckets_[i] += s.buckets[i];
  min_ = count_ == 0 ? s.min : std::min(min_, s.min);
  max_ = count_ == 0 ? s.max : std::max(max_, s.max);
  count_ += s.count;
  sum_ += s.sum;
}

void LatencyHistogram::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  buckets_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

}  // namespace p2pdrm::obs
