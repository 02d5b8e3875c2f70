#include "net/transmitter.h"

#include <algorithm>

#include "core/messages.h"

namespace p2pdrm::net {

using core::DrmError;
using core::Round;

Transmitter::Transmitter(Config config, util::NodeId self, Network& network,
                         crypto::SecureRandom& rng)
    : config_(config), self_(self), network_(network), rng_(rng) {
  if (config_.retry_budget > 0) {
    for (auto& bucket : retry_budgets_) {
      bucket = TokenBucket(config_.retry_budget,
                           config_.retry_budget_refill_per_second);
    }
  }
}

Transmitter::~Transmitter() { *alive_ = false; }

transport::TimerId Transmitter::schedule(util::SimTime delay,
                                        std::function<void()> action) {
  // Timers post to the client's own transport group, so they are
  // serialized with the client's packet deliveries on both backends.
  return network_.post(self_, delay, [alive = alive_, action = std::move(action)] {
    if (*alive) action();
  });
}

void Transmitter::bind_observability(obs::Registry* registry,
                                     obs::Tracer* tracer,
                                     obs::SloMonitor* slo) {
  registry_ = registry;
  tracer_ = tracer;
  slo_ = slo;
  for (const Round r : core::kAllRounds) {
    round_hist_[static_cast<std::size_t>(r)] =
        registry_ == nullptr
            ? nullptr
            : &registry_->histogram("client.round." + std::string(to_string(r)));
  }
}

void Transmitter::record(Round round, util::SimTime started, bool success) {
  const util::SimTime latency = network_.now() - started;
  feedback_.push_back({round, started, latency, success});
  if (success && round_hist_[static_cast<std::size_t>(round)] != nullptr) {
    round_hist_[static_cast<std::size_t>(round)]->record(latency);
  }
  if (success && slo_ != nullptr) {
    slo_->observe(to_string(round), network_.now(), latency);
  }
}

void Transmitter::count(const char* name) {
  if (registry_ != nullptr) registry_->counter(name).inc();
}

bool Transmitter::spend_retry_token(Round round) {
  if (retry_budgets_[static_cast<std::size_t>(round)].try_take(network_.now())) {
    return true;
  }
  ++stats_.retry_budget_exhaustions;
  count("client.retry_budget.exhausted");
  return false;
}

CircuitBreaker* Transmitter::breaker_for(util::NodeId node) {
  if (config_.breaker_failure_threshold <= 0) return nullptr;
  const auto it = breakers_.find(node);
  if (it != breakers_.end()) return &it->second;
  CircuitBreaker::Policy policy;
  policy.failure_threshold = config_.breaker_failure_threshold;
  policy.cooldown = config_.breaker_cooldown;
  return &breakers_.emplace(node, CircuitBreaker(policy)).first->second;
}

void Transmitter::begin_attempt_span(std::uint64_t request_id, Pending& pending) {
  pending.attempt_span = tracer_->begin_span("client", "attempt", self_,
                                             network_.now(), pending.span);
  tracer_->bind_request(self_, request_id, pending.attempt_span);
}

void Transmitter::close_request_spans(std::uint64_t request_id, Pending& pending,
                                      bool ok, const char* outcome) {
  if (tracer_ == nullptr) return;
  const util::SimTime now = network_.now();
  tracer_->end_span(pending.attempt_span, now, ok);
  tracer_->tag(pending.span, "outcome", outcome);
  tracer_->end_span(pending.span, now, ok);
  tracer_->unbind_request(self_, request_id);
}

void Transmitter::fail(PendingMap::iterator it, const char* outcome) {
  const std::uint64_t request_id = it->first;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  close_request_spans(request_id, pending, /*ok=*/false, outcome);
  record(pending.round, pending.started, false);
  if (pending.on_fail) pending.on_fail(DrmError::kNoCapacity);
}

void Transmitter::send(util::NodeId to, MsgKind kind, util::Bytes payload,
                       MsgKind expect, Round round, OnResponse on_response,
                       OnFail on_fail) {
  CircuitBreaker* breaker = breaker_for(to);
  if (breaker != nullptr && !breaker->allow(network_.now())) {
    // The breaker is open: this destination keeps timing out, so fail fast
    // instead of burning a full timeout ladder. The resilience layer treats
    // it like any other failed round (failover to an alternate instance).
    ++stats_.breaker_fast_fails;
    count("client.breaker.fast_fail");
    const util::SimTime started = network_.now();
    schedule(0, [this, round, started, on_fail = std::move(on_fail)] {
      record(round, started, false);
      if (on_fail) on_fail(DrmError::kNoCapacity);
    });
    return;
  }
  const std::uint64_t request_id = next_request_id_++;
  Pending pending{.expect = expect, .to = to,
                  .wire = std::make_shared<const util::Bytes>(
                      Envelope{kind, request_id, std::move(payload)}.encode()),
                  .retries_left = config_.max_retries, .round = round,
                  .started = network_.now(), .on_response = std::move(on_response),
                  .on_fail = std::move(on_fail)};
  if (tracer_ != nullptr) {
    // One span for the whole request, one child per transmission attempt;
    // the binding lets the network's trace interceptor and the serving node
    // parent their spans under the in-flight attempt.
    pending.span = tracer_->begin_span("client", std::string(to_string(round)),
                                       self_, pending.started);
    tracer_->tag(pending.span, "kind", std::string(to_string(kind)));
    tracer_->tag(pending.span, "to", std::to_string(to));
    begin_attempt_span(request_id, pending);
  }
  transmit(request_id,
           pending_.emplace(request_id, std::move(pending)).first->second);
}

void Transmitter::transmit(std::uint64_t request_id, const Pending& pending) {
  network_.send(self_, pending.to, pending.wire);
  arm_timeout(request_id);
}

void Transmitter::arm_timeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  const std::uint64_t attempt = it->second.attempt;

  // Exponential backoff with jitter: attempt k waits factor^k times the
  // base timeout (capped), stretched by up to kJitter so clients that all
  // lost the same manager do not hammer its replacement in lockstep.
  const int step = config_.max_retries - it->second.retries_left;
  double timeout = static_cast<double>(config_.request_timeout);
  for (int i = 0; i < step; ++i) timeout *= kBackoffFactor;
  timeout = std::min(timeout, static_cast<double>(kMaxTimeout));
  timeout *= 1.0 + kJitter * rng_.uniform_real();
  const auto delay = static_cast<util::SimTime>(timeout);

  it->second.timeout = schedule(delay, [this, request_id, attempt] {
    const auto p = pending_.find(request_id);
    if (p == pending_.end() || p->second.attempt != attempt) return;  // resolved
    Pending& pending = p->second;
    if (pending.retries_left > 0 && spend_retry_token(pending.round)) {
      --pending.retries_left;
      ++pending.attempt;
      ++stats_.retransmits;
      if (tracer_ != nullptr) {
        // The old attempt timed out; open a fresh child span and rebind the
        // request id to it.
        const util::SimTime now = network_.now();
        tracer_->end_span(pending.attempt_span, now, /*ok=*/false);
        tracer_->event(pending.span, now, "retransmit",
                       "attempt " + std::to_string(pending.attempt));
        begin_attempt_span(request_id, pending);
      }
      transmit(request_id, pending);
      return;
    }
    // Give up: out of retries, or retries remain but the round's budget is
    // dry (a fleet-wide outage must not multiply the offered load).
    const bool budget_dry = pending.retries_left > 0;
    if (!budget_dry) ++stats_.timeout_exhaustions;
    if (CircuitBreaker* breaker = breaker_for(pending.to)) {
      breaker->record_failure(network_.now());
    }
    fail(p, budget_dry ? "budget" : "timeout");
  });
}

void Transmitter::on_envelope(util::NodeId from, const EnvelopeView& env) {
  const auto it = pending_.find(env.request_id);
  if (it == pending_.end()) return;  // stale duplicate
  // Request ids count up from 1 in every client, so any node can name one
  // of ours: only the node the request went to may answer it (or shed it).
  if (from != it->second.to) return;
  if (env.kind == MsgKind::kBusy) {
    handle_busy(it, env);
    return;
  }
  if (env.kind != it->second.expect) return;  // mismatched response kind
  Pending pending = std::move(it->second);
  pending_.erase(it);
  network_.release(self_, pending.timeout);
  if (CircuitBreaker* breaker = breaker_for(pending.to)) breaker->record_success();
  close_request_spans(env.request_id, pending, /*ok=*/true, "ok");
  record(pending.round, pending.started, true);
  pending.on_response(env);
}

void Transmitter::handle_busy(PendingMap::iterator it, const EnvelopeView& env) {
  BusyPayload busy;
  try {
    busy = BusyPayload::decode(env.payload);
  } catch (const util::WireError&) {
    return;  // corrupt BUSY; let the timeout machinery handle the request
  }
  Pending& pending = it->second;
  ++stats_.busy_received;
  ++pending.attempt;  // the armed timeout is for a dead attempt now
  network_.release(self_, pending.timeout);
  ++pending.busy_defers;
  count("client.busy.received");
  // A BUSY proves the destination is alive — it answered — so the breaker
  // sees a success even though the operation has not completed yet.
  if (CircuitBreaker* breaker = breaker_for(pending.to)) breaker->record_success();
  if (pending.busy_defers > kBusyMaxDefers) {
    fail(it, "busy");
    return;
  }
  if (!spend_retry_token(pending.round)) {
    fail(it, "budget");
    return;
  }
  ++stats_.busy_deferred_resends;
  count("client.busy.deferred");
  // Honor the server's hint, stretched by jitter so the shed cohort does
  // not re-arrive as one synchronized wave.
  double delay = static_cast<double>(std::max<util::SimTime>(
      busy.retry_after, config_.request_timeout / 4));
  delay *= 1.0 + kJitter * rng_.uniform_real();
  const std::uint64_t attempt = pending.attempt;
  const std::uint64_t request_id = env.request_id;
  if (tracer_ != nullptr) {
    const util::SimTime now = network_.now();
    tracer_->end_span(pending.attempt_span, now, /*ok=*/false);
    tracer_->event(pending.span, now, "busy",
                   "retry-after " + std::to_string(busy.retry_after) +
                       " depth " + std::to_string(busy.queue_depth));
  }
  schedule(static_cast<util::SimTime>(delay), [this, request_id, attempt] {
    const auto p = pending_.find(request_id);
    if (p == pending_.end() || p->second.attempt != attempt) return;
    if (tracer_ != nullptr) begin_attempt_span(request_id, p->second);
    transmit(request_id, p->second);
  });
}

void Transmitter::cancel() {
  for (auto& [request_id, pending] : pending_) {
    network_.release(self_, pending.timeout);
    close_request_spans(request_id, pending, /*ok=*/false, "departed");
  }
  pending_.clear();
}

}  // namespace p2pdrm::net
