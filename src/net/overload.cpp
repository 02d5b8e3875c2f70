#include "net/overload.h"

#include <algorithm>
#include <stdexcept>

namespace p2pdrm::net {

ServiceQueue::ServiceQueue(OverloadPolicy policy) : policy_(policy) {
  if (policy_.workers == 0) {
    throw std::invalid_argument("ServiceQueue: zero workers");
  }
  for (std::size_t i = 0; i < policy_.workers; ++i) free_at_.push(0);
}

void ServiceQueue::prune(util::SimTime now) const {
  while (!starts_.empty() && starts_.front() <= now) starts_.pop_front();
}

std::size_t ServiceQueue::depth(util::SimTime now) const {
  prune(now);
  return starts_.size();
}

ServiceQueue::Decision ServiceQueue::admit(util::SimTime now,
                                           util::SimTime service,
                                           bool sheddable) {
  prune(now);
  Decision d;
  d.depth = starts_.size();

  const bool over_capacity =
      policy_.queue_capacity > 0 && d.depth >= policy_.queue_capacity;
  const bool over_high_water =
      sheddable && policy_.high_water > 0 && d.depth >= policy_.high_water;
  if (over_capacity || over_high_water) {
    d.accepted = false;
    ++shed_;
    // Hint scales with the backlog: with `depth` requests ahead and
    // `workers` servers draining them, the queue needs about
    // depth/workers service times to fall below the mark again.
    const util::SimTime drain = static_cast<util::SimTime>(
        (d.depth / policy_.workers + 1) * static_cast<std::uint64_t>(service));
    d.retry_after = std::max(policy_.busy_retry_after, drain);
    return d;
  }

  util::SimTime free = free_at_.top();
  free_at_.pop();
  const util::SimTime start = std::max(now, free);
  d.wait = start - now;
  free_at_.push(start + service);
  starts_.push_back(start);
  ++admitted_;
  return d;
}

TokenBucket::TokenBucket(double capacity, double refill_per_second)
    : capacity_(capacity), refill_per_second_(refill_per_second),
      tokens_(capacity) {}

void TokenBucket::refill(util::SimTime now) {
  if (now <= updated_) return;
  tokens_ = std::min(capacity_,
                     tokens_ + refill_per_second_ * util::to_seconds(now - updated_));
  updated_ = now;
}

bool TokenBucket::try_take(util::SimTime now) {
  if (unlimited()) return true;
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

bool CircuitBreaker::allow(util::SimTime now) {
  if (policy_.failure_threshold <= 0) return true;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - opened_at_ >= policy_.cooldown) {
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;  // the probe
      }
      return false;
    case State::kHalfOpen:
      // One probe at a time; everything else fast-fails until it resolves.
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::record_success() {
  if (policy_.failure_threshold <= 0) return;
  if (state_ != State::kClosed) ++recloses_;
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
}

void CircuitBreaker::record_failure(util::SimTime now) {
  if (policy_.failure_threshold <= 0) return;
  if (state_ == State::kHalfOpen) {
    // The probe failed: back to a full cooldown.
    state_ = State::kOpen;
    opened_at_ = now;
    probe_in_flight_ = false;
    ++opens_;
    return;
  }
  if (state_ == State::kOpen) return;  // already open; nothing to count
  if (++consecutive_failures_ >= policy_.failure_threshold) {
    state_ = State::kOpen;
    opened_at_ = now;
    ++opens_;
  }
}

}  // namespace p2pdrm::net
