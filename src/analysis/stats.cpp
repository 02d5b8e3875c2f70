#include "analysis/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace p2pdrm::analysis {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<double> pearson(const std::vector<double>& x,
                              const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return std::nullopt;
  const double mx = mean(x), my = mean(y);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0 || syy == 0) return std::nullopt;
  return sxy / std::sqrt(sxx * syy);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed) {}

Reservoir::Reservoir(const Reservoir& other)
    : capacity_(other.capacity_),
      samples_(other.samples_),
      seen_(other.seen_),
      seed_(other.seed_),
      rng_(other.rng_ ? std::make_unique<crypto::SecureRandom>(*other.rng_) : nullptr) {}

Reservoir& Reservoir::operator=(const Reservoir& other) {
  if (this != &other) *this = Reservoir(other);
  return *this;
}

void Reservoir::add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    // Reserve the whole capacity at once, at the first sample: many
    // reservoirs never see one, and growing by doubling would overshoot.
    if (samples_.size() == samples_.capacity()) samples_.reserve(capacity_);
    samples_.push_back(value);
    return;
  }
  if (!rng_) rng_ = std::make_unique<crypto::SecureRandom>(seed_);
  const std::uint64_t slot = rng_->uniform(seen_);
  if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = value;
}

double Reservoir::quantile(double q) const {
  return analysis::quantile(samples_, q);
}

Reservoir Reservoir::merged(std::size_t capacity, std::uint64_t seed,
                            const std::vector<const Reservoir*>& parts) {
  Reservoir out(capacity, seed);
  std::uint64_t total_seen = 0;
  std::size_t total_samples = 0;
  for (const Reservoir* p : parts) {
    if (p == nullptr) continue;
    total_seen += p->seen_;
    total_samples += p->samples_.size();
  }
  out.seen_ = total_seen;
  out.samples_.reserve(std::min(capacity, total_samples));
  if (total_samples <= capacity) {
    // Everything retained fits: concatenation in parts order is exact.
    for (const Reservoir* p : parts) {
      if (p == nullptr) continue;
      out.samples_.insert(out.samples_.end(), p->samples_.begin(),
                          p->samples_.end());
    }
    return out;
  }
  if (capacity == 0) return out;
  // Efraimidis–Spirakis weighted sampling without replacement: a retained
  // sample from a reservoir that saw N items but kept k stands for N/k
  // stream items, so its key is log(u)/ (N/k) (the log form of u^(1/w));
  // the `capacity` largest keys survive. Keys come from one generator
  // walking parts in order, so the merge is scheduling-independent.
  // Survivors are ordered by key descending, ties by stream position (the
  // sample's index in the concatenation of the parts): a strict total
  // order, so selecting the top `capacity` and sorting only those gives
  // exactly the prefix a stable sort of every key would.
  //
  // The candidates live in a buffer of at most 2×capacity entries. When it
  // fills, the best `capacity` are kept; from then on a key is admitted only
  // if it beats the worst of those (`bar`). A key that does not has
  // `capacity` better keys before it and cannot survive, and one dropped at
  // a compaction has as many, so the survivors are the same as keying every
  // sample at once.
  struct Keyed {
    double key;
    std::size_t pos;
  };
  const auto before = [](const Keyed& a, const Keyed& b) {
    return a.key > b.key || (a.key == b.key && a.pos < b.pos);
  };
  const std::size_t bound = std::min(2 * capacity, total_samples);
  std::vector<Keyed> keyed;
  keyed.reserve(bound);
  // Worse than every real key (keys are finite) until the first compaction.
  Keyed bar{-std::numeric_limits<double>::infinity(), total_samples};
  const auto keep_best = [&] {
    const auto worst = keyed.begin() + static_cast<std::ptrdiff_t>(capacity - 1);
    std::nth_element(keyed.begin(), worst, keyed.end(), before);
    keyed.resize(capacity);
    bar = keyed.back();
  };
  // A u below exp(bar.key × weight) gives a key below the bar's, so it is
  // rejected without its log. The threshold is lowered by a relative 2^-30,
  // far above the rounding error of log and exp, so every u it rejects
  // would fail the admission test too; u at or above it takes that test.
  double reject_below = 0;
  const auto set_threshold = [&](double weight) {
    reject_below = std::exp(bar.key * weight) * (1 - 0x1p-30);
  };
  std::vector<const Reservoir*> sources;  // the non-empty parts, in order
  std::vector<std::size_t> ends;          // their cumulative sample counts
  crypto::SecureRandom key_rng(seed);
  std::size_t pos = 0;
  for (const Reservoir* p : parts) {
    if (p == nullptr || p->samples_.empty()) continue;
    const double weight = static_cast<double>(p->seen_) /
                          static_cast<double>(p->samples_.size());
    set_threshold(weight);
    for (std::size_t i = 0; i < p->samples_.size(); ++i, ++pos) {
      double u = key_rng.uniform_real();
      if (u <= 0.0) u = std::numeric_limits<double>::min();
      if (u < reject_below) continue;
      const Keyed k{std::log(u) / weight, pos};
      if (!before(k, bar)) continue;
      keyed.push_back(k);
      if (keyed.size() == bound) {
        keep_best();
        set_threshold(weight);
      }
    }
    sources.push_back(p);
    ends.push_back(pos);
  }
  if (keyed.size() > capacity) keep_best();
  std::sort(keyed.begin(), keyed.end(), before);
  for (const Keyed& k : keyed) {
    const std::size_t part = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), k.pos) - ends.begin());
    const std::size_t start = part == 0 ? 0 : ends[part - 1];
    out.samples_.push_back(sources[part]->samples_[k.pos - start]);
  }
  return out;
}

}  // namespace p2pdrm::analysis
