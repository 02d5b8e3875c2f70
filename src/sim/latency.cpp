#include "sim/latency.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2pdrm::sim {

util::SimTime LatencyModel::sample_rtt(crypto::SecureRandom& rng) const {
  return sample_rtt(rng, std::log(static_cast<double>(median)));
}

util::SimTime LatencyModel::sample_rtt(crypto::SecureRandom& rng,
                                       double log_median) const {
  const double draw = rng.lognormal(log_median, sigma);
  const util::SimTime rtt = floor + static_cast<util::SimTime>(draw);
  return std::min(rtt, cap);
}

QueueStation::QueueStation(std::size_t servers) : servers_(servers) {
  if (servers == 0) throw std::invalid_argument("QueueStation: zero servers");
  for (std::size_t i = 0; i < servers; ++i) free_at_.push(0);
}

util::SimTime QueueStation::submit(util::SimTime arrival, util::SimTime service,
                                   util::SimTime* queue_wait) {
  util::SimTime free = free_at_.top();
  free_at_.pop();
  const util::SimTime start = std::max(arrival, free);
  if (queue_wait != nullptr) *queue_wait = start - arrival;
  const util::SimTime departure = start + service;
  free_at_.push(departure);
  ++processed_;
  busy_ += service;
  return departure;
}

double QueueStation::utilization(util::SimTime horizon) const {
  if (horizon <= 0) return 0.0;
  return static_cast<double>(busy_) /
         (static_cast<double>(horizon) * static_cast<double>(servers_));
}

}  // namespace p2pdrm::sim
