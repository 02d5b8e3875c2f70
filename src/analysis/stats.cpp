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
    : capacity_(capacity), rng_(seed) {
  samples_.reserve(capacity);
}

void Reservoir::add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_.uniform(seen_);
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
  if (total_samples <= capacity) {
    // Everything retained fits: concatenation in parts order is exact.
    for (const Reservoir* p : parts) {
      if (p == nullptr) continue;
      out.samples_.insert(out.samples_.end(), p->samples_.begin(),
                          p->samples_.end());
    }
    return out;
  }
  // Efraimidis–Spirakis weighted sampling without replacement: a retained
  // sample from a reservoir that saw N items but kept k stands for N/k
  // stream items, so its key is log(u)/ (N/k) (the log form of u^(1/w));
  // the `capacity` largest keys survive. Keys come from one generator
  // walking parts in order, so the merge is scheduling-independent.
  struct Keyed {
    double key;
    double value;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(total_samples);
  crypto::SecureRandom key_rng(seed);
  for (const Reservoir* p : parts) {
    if (p == nullptr || p->samples_.empty()) continue;
    const double weight = static_cast<double>(p->seen_) /
                          static_cast<double>(p->samples_.size());
    for (double v : p->samples_) {
      double u = key_rng.uniform_real();
      if (u <= 0.0) u = std::numeric_limits<double>::min();
      keyed.push_back({std::log(u) / weight, v});
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key > b.key; });
  const std::size_t take = std::min(capacity, keyed.size());
  out.samples_.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.samples_.push_back(keyed[i].value);
  return out;
}

}  // namespace p2pdrm::analysis
