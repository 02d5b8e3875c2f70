// Statistics used by the benchmark harness: quantiles, Pearson correlation,
// reservoir sampling for week-long latency streams, and CDF extraction —
// everything needed to regenerate the paper's Fig. 5 / Fig. 6 style output.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/chacha20.h"

namespace p2pdrm::analysis {

/// Quantile of a sample set (q in [0,1]; linear interpolation). Returns 0
/// for empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Pearson product-moment correlation coefficient; nullopt if either series
/// is constant or the lengths differ / are < 2.
std::optional<double> pearson(const std::vector<double>& x,
                              const std::vector<double>& y);

/// Fixed-size uniform reservoir over an unbounded stream (Vitter's R).
/// Keeps week-scale latency streams bounded in memory while preserving the
/// distribution for quantiles and CDFs.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 1);

  void add(double value);
  std::uint64_t seen() const { return seen_; }
  const std::vector<double>& samples() const { return samples_; }

  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  bool empty() const { return samples_.empty(); }

  /// Deterministic merge of per-shard reservoirs into one reservoir that is
  /// a valid uniform sample of the concatenated streams. When the retained
  /// samples all fit, the merge is exact concatenation (in `parts` order);
  /// otherwise each retained sample is weighted by the stream count it
  /// represents (seen/kept for its source) and `capacity` survivors are
  /// drawn without replacement, seeded by `seed` — so the result depends
  /// only on (parts order, seed), never on thread scheduling.
  static Reservoir merged(std::size_t capacity, std::uint64_t seed,
                          const std::vector<const Reservoir*>& parts);

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  crypto::SecureRandom rng_;
};

}  // namespace p2pdrm::analysis
