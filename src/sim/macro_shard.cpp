#include "sim/macro_shard.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace p2pdrm::sim {

namespace {

/// Slice service scale: slice_servers * S / servers keeps total modeled
/// capacity at exactly `servers`. Exactly 1.0 when S == 1.
double slice_scale(std::size_t slice_servers, std::size_t num_shards,
                   std::size_t servers) {
  return static_cast<double>(slice_servers) * static_cast<double>(num_shards) /
         static_cast<double>(servers);
}

util::SimTime scaled(util::SimTime t, double scale) {
  if (scale == 1.0) return t;
  return std::max<util::SimTime>(
      1, static_cast<util::SimTime>(static_cast<double>(t) * scale));
}

}  // namespace

MacroShard::MacroShard(const MacroSimConfig& cfg,
                       const workload::ChannelPartition& partition,
                       std::size_t index, std::size_t num_shards)
    : cfg_(cfg), part_(partition), index_(index), num_shards_(num_shards),
      rng_(util::split_seed(cfg.seed, util::lane::kShard + index)),
      arrival_rng_(
          util::split_seed(cfg.seed, util::lane::kShard + (1ull << 32) + index)),
      um_servers_(std::max<std::size_t>(1, cfg.user_manager_servers / num_shards)),
      cm_servers_(std::max<std::size_t>(1, cfg.channel_manager_servers / num_shards)),
      um_scale_(slice_scale(um_servers_, num_shards, cfg.user_manager_servers)),
      cm_scale_(slice_scale(cm_servers_, num_shards, cfg.channel_manager_servers)),
      um_(um_servers_), cm_(cm_servers_),
      manager_net_{&cfg.manager_net,
                   std::log(static_cast<double>(cfg.manager_net.median))},
      peer_net_{&cfg.peer_net, std::log(static_cast<double>(cfg.peer_net.median))},
      horizon_(static_cast<util::SimTime>(cfg.days) * util::kDay) {
  trace_enabled_ = cfg_.obs.tracer != nullptr;
  if (trace_enabled_) tracer_.set_capacity(cfg_.obs.tracer->capacity());
  buffer_slo_ = cfg_.obs.slo != nullptr;

  const double rate = shard_peak_rate();
  if (rate > 0) arrivals_.emplace(cfg_.profile, rate);

  const ServiceCosts& sc = cfg_.costs;
  const ClientCosts& cc = cfg_.client_costs;
  const util::SimTime service_medians[] = {sc.login1, sc.login2, sc.switch1,
                                           sc.switch2, sc.join};
  const util::SimTime client_medians[] = {cc.login1, cc.login2, cc.switch1,
                                          cc.switch2, cc.join};
  const std::size_t hours = static_cast<std::size_t>(cfg_.days) * 24;
  for (std::size_t r = 0; r < core::kNumRounds; ++r) {
    service_log_median_[r] = std::log(static_cast<double>(service_medians[r]));
    client_log_median_[r] = std::log(static_cast<double>(client_medians[r]));
    RoundTrace& trace = rounds_[r];
    trace.hourly.reserve(hours);
    const std::uint64_t stream = (index_ * core::kNumRounds + r) << 20;
    for (std::size_t h = 0; h < hours; ++h) {
      trace.hourly.emplace_back(
          cfg_.reservoir_per_hour,
          util::split_seed(cfg_.seed, util::lane::kReservoir + stream + h));
    }
    // 0xFFFFF / 0xFFFFE are out of reach for real hour indices, so the
    // peak/off-peak streams never collide with an hourly one.
    trace.peak = analysis::Reservoir(
        cfg_.reservoir_cdf,
        util::split_seed(cfg_.seed, util::lane::kReservoir + stream + 0xFFFFF));
    trace.offpeak = analysis::Reservoir(
        cfg_.reservoir_cdf,
        util::split_seed(cfg_.seed, util::lane::kReservoir + stream + 0xFFFFE));

    const core::Round round = static_cast<core::Round>(r);
    hist_hourly_[r].reserve(hours);
    for (std::size_t h = 0; h < hours; ++h) {
      hist_hourly_[r].push_back(
          &registry_.histogram(hourly_histogram_name(round, h)));
    }
    hist_peak_[r] = &registry_.histogram(split_histogram_name(round, true));
    hist_offpeak_[r] = &registry_.histogram(split_histogram_name(round, false));
    hist_all_[r] = &registry_.histogram(round_histogram_name(round));
  }
  concurrency_integral_.assign(hours, 0.0);
}

double MacroShard::shard_peak_rate() const {
  // Little's law gives the global peak arrival rate; Poisson splitting
  // hands this shard its channels' share of it. The split streams are
  // statistically identical to thinning one global stream, and each shard
  // draws its own, so arrivals never depend on another shard's schedule.
  const double mean_duration_s =
      util::to_seconds(cfg_.session.median_duration) *
      std::exp(cfg_.session.duration_sigma * cfg_.session.duration_sigma / 2.0);
  const double global_rate = cfg_.peak_concurrent / mean_duration_s;
  return global_rate * part_.share(index_);
}

void MacroShard::seed_initial_events() {
  if (arrivals_.has_value()) {
    schedule(arrivals_->next(0, arrival_rng_), 0, Phase::kArrival);
  }
  // Flash crowds land on the shard that owns the event's channel; each
  // crowd draws its arrival times from its own seed lane, so the schedule
  // is identical no matter which shard simulates it.
  for (std::size_t i = 0; i < cfg_.flash_crowds.size(); ++i) {
    const workload::FlashCrowd& crowd = cfg_.flash_crowds[i];
    if (part_.shard_of(crowd.channel) != index_) continue;
    crypto::SecureRandom crowd_rng(
        util::split_seed(cfg_.seed, util::lane::kFlashCrowd + i));
    for (util::SimTime t : crowd.arrivals(crowd_rng)) {
      if (t < horizon_) {
        schedule(t, static_cast<std::uint32_t>(crowd.channel),
                 Phase::kCrowdArrival);
      }
    }
  }
}

void MacroShard::run_window(util::SimTime window_end) {
  while (!queue_.empty() && queue_.top().when < window_end) {
    const Event ev = queue_.top();
    queue_.pop();
    now_ = ev.when;
    ++events_;
    dispatch(ev);
  }
}

void MacroShard::finish(util::SimTime horizon) {
  flush_concurrency(horizon);
  // Sessions still mid-round at the horizon never completed: close their
  // spans as failed so every exported tree is complete.
  if (trace_enabled_) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      Session& session = pool_[i];
      if (session.round_span != 0) {
        tracer_.end_span(session.round_span, horizon, false);
        session.round_span = 0;
      }
    }
  }
}

const obs::Registry& MacroShard::folded_registry() {
  // Bucket counts, counts, minima and maxima fold exactly. Each sum is a
  // sum of integer-valued doubles (microseconds), exact while it stays
  // below 2^53 us (about 285 years of summed latency), so each aggregate
  // equals, bit for bit, a histogram that recorded every round directly.
  //
  // Rounds complete at now_, which never decreases, so the hours before
  // now_'s are closed and the ones after it are empty. Closed hours are
  // folded once, into closed_peak_/closed_offpeak_; each read adds the
  // open hour to those.
  const std::size_t open = std::min(static_cast<std::size_t>(now_ / util::kHour),
                                    hist_hourly_[0].size() - 1);
  for (std::size_t r = 0; r < core::kNumRounds; ++r) {
    for (std::size_t h = folded_hours_; h < open; ++h) {
      (peak_hour(h) ? closed_peak_[r] : closed_offpeak_[r])
          .merge(*hist_hourly_[r][h]);
    }
    obs::LatencyHistogram& peak = *hist_peak_[r];
    obs::LatencyHistogram& offpeak = *hist_offpeak_[r];
    obs::LatencyHistogram& all = *hist_all_[r];
    peak = closed_peak_[r];
    offpeak = closed_offpeak_[r];
    (peak_hour(open) ? peak : offpeak).merge(*hist_hourly_[r][open]);
    all = peak;
    all.merge(offpeak);
  }
  folded_hours_ = open;
  return registry_;
}

void MacroShard::schedule(util::SimTime when, std::uint32_t session,
                          Phase phase) {
  queue_.push(Event{when, next_seq_++, session, phase});
}

void MacroShard::flush_concurrency(util::SimTime upto) {
  util::SimTime t = last_change_;
  while (t < upto) {
    const std::size_t hour = static_cast<std::size_t>(t / util::kHour);
    const util::SimTime hour_end =
        static_cast<util::SimTime>(hour + 1) * util::kHour;
    const util::SimTime span = std::min(upto, hour_end) - t;
    if (hour < concurrency_integral_.size()) {
      concurrency_integral_[hour] +=
          static_cast<double>(concurrency_) * static_cast<double>(span);
    }
    t += span;
  }
  last_change_ = upto;
}

void MacroShard::change_concurrency(int delta) {
  flush_concurrency(now_);
  concurrency_ += delta;
  local_peak_ = std::max(local_peak_, static_cast<double>(concurrency_));
}

util::SimTime MacroShard::lognormal_around(double log_median, double sigma) {
  const double draw = rng_.lognormal(log_median, sigma);
  return std::max<util::SimTime>(1, static_cast<util::SimTime>(draw));
}

util::SimTime MacroShard::service_time(core::Round r, double scale) {
  return scaled(lognormal_around(service_log_median_[static_cast<std::size_t>(r)],
                                 cfg_.costs.dispersion),
                scale);
}

util::SimTime MacroShard::client_time(core::Round r) {
  return lognormal_around(client_log_median_[static_cast<std::size_t>(r)],
                          cfg_.client_costs.dispersion);
}

void MacroShard::record(std::uint32_t s, core::Round r,
                        util::SimTime latency) {
  const std::size_t ri = static_cast<std::size_t>(r);
  RoundTrace& trace = rounds_[ri];
  const double seconds = util::to_seconds(latency);
  // Rounds complete inside run_window, so now_ < horizon_ and the hour is
  // always in range.
  const std::size_t hour = static_cast<std::size_t>(now_ / util::kHour);
  trace.hourly[hour].add(seconds);
  (peak_hour(hour) ? trace.peak : trace.offpeak).add(seconds);
  ++trace.count;
  // The hourly histogram only: folded_registry() derives the aggregates.
  hist_hourly_[ri][hour]->record_unlocked(latency);
  // SLO observations are buffered, not delivered: the coordinator replays
  // all shards' buffers in deterministic merged order at the next barrier.
  if (buffer_slo_) slo_buffer_.push_back(SloSample{now_, r, latency});
  Session& session = pool_[s];
  if (session.round_span != 0) {
    tracer_.end_span(session.round_span, now_, true);
    session.round_span = 0;
  }
}

void MacroShard::start_round(std::uint32_t s, core::Round r,
                             Phase arrive_phase, const Net& net) {
  Session& session = pool_[s];
  session.round_start = now_;
  const util::SimTime rtt = net.sample_rtt(rng_);
  session.rtt_half = rtt / 2;
  const util::SimTime think = client_time(r);
  const util::SimTime arrive = now_ + think + session.rtt_half;
  if (session.traced) {
    session.round_span =
        tracer_.begin_span("client", std::string(to_string(r)), s + 1, now_);
    // The request flight; client think time stays the round's residual.
    const obs::SpanId hop = tracer_.begin_span(
        "net", "hop request", s + 1, now_ + think, session.round_span);
    tracer_.end_span(hop, arrive, true);
  }
  schedule(arrive, s, arrive_phase);
}

void MacroShard::serve_and_respond(std::uint32_t s, core::Round r,
                                   QueueStation& station, double scale,
                                   Phase resp_phase) {
  Session& session = pool_[s];
  util::SimTime wait = 0;
  const util::SimTime depart =
      station.submit(now_, service_time(r, scale), &wait);
  if (session.round_span != 0) {
    // Farm pseudo-actors: 2 = User Manager farm, 3 = Channel Manager farm.
    const std::uint64_t farm = &station == &um_ ? 2 : 3;
    if (wait > 0) {
      const obs::SpanId q =
          tracer_.begin_span("server", "queue", farm, now_, session.round_span);
      tracer_.end_span(q, now_ + wait, true);
    }
    const obs::SpanId serve = tracer_.begin_span("server", "serve", farm,
                                                 now_ + wait,
                                                 session.round_span);
    tracer_.end_span(serve, depart, true);
    const obs::SpanId hop = tracer_.begin_span("net", "hop response", s + 1,
                                               depart, session.round_span);
    tracer_.end_span(hop, depart + session.rtt_half, true);
  }
  schedule(depart + session.rtt_half, s, resp_phase);
}

bool MacroShard::shed_login(std::uint32_t s, Phase arrive_phase) {
  if (cfg_.login_admission_max_wait <= 0) return false;
  Session& session = pool_[s];
  if (session.relogging_in) return false;  // protected tier
  if (um_.estimated_wait(now_) <= cfg_.login_admission_max_wait) return false;
  ++totals_.logins_shed;
  if (session.busy_retries >= cfg_.max_busy_retries) {
    // Out of patience: the viewer walks away (the honest cost of shedding —
    // counted, never silent).
    ++totals_.busy_abandoned;
    if (session.round_span != 0) {
      tracer_.end_span(session.round_span, now_, false);
      session.round_span = 0;
    }
    session.active = false;
    change_concurrency(-1);
    free_list_.push_back(s);
    return true;
  }
  ++session.busy_retries;
  ++totals_.busy_retries;
  if (session.round_span != 0) tracer_.event(session.round_span, now_, "busy");
  schedule(now_ + cfg_.busy_retry_after, s, arrive_phase);
  return true;
}

void MacroShard::dispatch(const Event& ev) {
  switch (ev.phase) {
    case Phase::kArrival: {
      // Chain the next background arrival before anything else, so the
      // arrival process stays a pure function of this shard's RNG stream.
      if (arrivals_.has_value()) {
        const util::SimTime next = arrivals_->next(now_, arrival_rng_);
        if (next < horizon_) schedule(next, 0, Phase::kArrival);
      }
      on_arrival(true, 0);
      return;
    }
    case Phase::kCrowdArrival: on_arrival(false, ev.session); return;
    case Phase::kLogin1Arrive:
      if (shed_login(ev.session, Phase::kLogin1Arrive)) return;
      serve_and_respond(ev.session, core::Round::kLogin1, um_, um_scale_,
                        Phase::kLogin1Resp);
      return;
    case Phase::kLogin1Resp: {
      record(ev.session, core::Round::kLogin1,
             now_ - pool_[ev.session].round_start);
      start_round(ev.session, core::Round::kLogin2, Phase::kLogin2Arrive,
                  manager_net_);
      return;
    }
    case Phase::kLogin2Arrive:
      if (shed_login(ev.session, Phase::kLogin2Arrive)) return;
      serve_and_respond(ev.session, core::Round::kLogin2, um_, um_scale_,
                        Phase::kLogin2Resp);
      return;
    case Phase::kLogin2Resp: on_login_complete(ev.session); return;
    case Phase::kSwitch1Arrive:
      serve_and_respond(ev.session, core::Round::kSwitch1, cm_, cm_scale_,
                        Phase::kSwitch1Resp);
      return;
    case Phase::kSwitch1Resp: {
      record(ev.session, core::Round::kSwitch1,
             now_ - pool_[ev.session].round_start);
      start_round(ev.session, core::Round::kSwitch2, Phase::kSwitch2Arrive,
                  manager_net_);
      return;
    }
    case Phase::kSwitch2Arrive:
      serve_and_respond(ev.session, core::Round::kSwitch2, cm_, cm_scale_,
                        Phase::kSwitch2Resp);
      return;
    case Phase::kSwitch2Resp: on_switch_complete(ev.session); return;
    case Phase::kJoinArrive: on_join_arrive(ev.session); return;
    case Phase::kJoinResp: on_join_complete(ev.session); return;
    case Phase::kAction: on_action(ev.session); return;
  }
}

void MacroShard::on_arrival(bool background, std::uint32_t channel) {
  std::uint32_t s;
  if (!free_list_.empty()) {
    s = free_list_.back();
    free_list_.pop_back();
    pool_[s] = Session{};
  } else {
    s = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Session& session = pool_[s];
  session.active = true;
  session.channel =
      background ? static_cast<std::uint32_t>(part_.sample(index_, rng_))
                 : channel;
  const std::uint64_t session_index = session_counter_++;
  session.traced = trace_enabled_ && cfg_.obs.trace_session_every > 0 &&
                   session_index % cfg_.obs.trace_session_every == 0;
  session.end_time = now_ + cfg_.session.sample_duration(rng_);
  ++totals_.sessions;
  change_concurrency(+1);
  start_round(s, core::Round::kLogin1, Phase::kLogin1Arrive, manager_net_);
}

void MacroShard::on_login_complete(std::uint32_t s) {
  Session& session = pool_[s];
  record(s, core::Round::kLogin2, now_ - session.round_start);
  session.ut_expiry = now_ + cfg_.user_ticket_lifetime;
  if (session.relogging_in) {
    session.relogging_in = false;
    ++totals_.ut_renewals;
    go_watch(s);
    return;
  }
  // Fresh login: tune to the first channel.
  session.renewing_ct = false;
  start_round(s, core::Round::kSwitch1, Phase::kSwitch1Arrive, manager_net_);
}

void MacroShard::on_switch_complete(std::uint32_t s) {
  Session& session = pool_[s];
  record(s, core::Round::kSwitch2, now_ - session.round_start);
  session.ct_expiry =
      std::min(now_ + cfg_.channel_ticket_lifetime, session.ut_expiry);
  if (session.renewing_ct) {
    session.renewing_ct = false;
    ++totals_.ct_renewals;
    go_watch(s);
    return;
  }
  session.join_attempts = 0;
  start_round(s, core::Round::kJoin, Phase::kJoinArrive, peer_net_);
}

void MacroShard::on_join_arrive(std::uint32_t s) {
  Session& session = pool_[s];
  // The sampled peer refuses with probability coupled (weakly) to load —
  // the busier the system, the more saturated parents appear in peer
  // lists. The load signal is global: this shard's live count plus every
  // other shard's count as of the last sync barrier.
  const double load =
      static_cast<double>(concurrency_ + remote_concurrency_) /
      cfg_.peak_concurrent;
  const double p_reject =
      std::min(0.9, cfg_.join_base_reject + cfg_.join_load_sensitivity * load);
  if (rng_.chance(p_reject) &&
      static_cast<std::size_t>(session.join_attempts) + 1 <
          cfg_.max_join_attempts) {
    ++session.join_attempts;
    ++totals_.join_retries;
    const util::SimTime retry_rtt = peer_net_.sample_rtt(rng_);
    if (session.round_span != 0) {
      const obs::SpanId hop = tracer_.begin_span(
          "net", "hop join-retry", s + 1, now_, session.round_span);
      tracer_.tag(hop, "attempt", std::to_string(session.join_attempts));
      tracer_.end_span(hop, now_ + retry_rtt, false);
      tracer_.event(session.round_span, now_, "join-refused");
    }
    schedule(now_ + retry_rtt, s, Phase::kJoinArrive);
    return;
  }
  // Accepted: peer-side processing (ticket verify + RSA-encrypt session
  // key), then the response travels back. Peers are individuals, not a
  // farm slice — no service scaling.
  const util::SimTime svc = service_time(core::Round::kJoin, 1.0);
  if (session.round_span != 0) {
    // Pseudo-actor 4 = the accepting peer.
    const obs::SpanId serve =
        tracer_.begin_span("server", "serve", 4, now_, session.round_span);
    tracer_.end_span(serve, now_ + svc, true);
    const obs::SpanId hop = tracer_.begin_span(
        "net", "hop response", s + 1, now_ + svc, session.round_span);
    tracer_.end_span(hop, now_ + svc + session.rtt_half, true);
  }
  schedule(now_ + svc + session.rtt_half, s, Phase::kJoinResp);
}

void MacroShard::on_join_complete(std::uint32_t s) {
  Session& session = pool_[s];
  record(s, core::Round::kJoin, now_ - session.round_start);
  if (!session.joined_once) {
    session.joined_once = true;
  } else {
    ++totals_.channel_switches;
  }
  session.next_switch = now_ + cfg_.session.sample_switch_gap(rng_);
  go_watch(s);
}

void MacroShard::go_watch(std::uint32_t s) {
  Session& session = pool_[s];
  const util::SimTime due = next_due(session);
  schedule(std::max(due, now_ + 1), s, Phase::kAction);
}

util::SimTime MacroShard::next_due(const Session& session) const {
  const util::SimTime ct_renew = session.ct_expiry - util::kMinute;
  const util::SimTime ut_renew = session.ut_expiry - 2 * util::kMinute;
  return std::min({session.end_time, session.next_switch, ct_renew, ut_renew});
}

void MacroShard::on_action(std::uint32_t s) {
  Session& session = pool_[s];
  if (!session.active) return;

  if (now_ >= session.end_time) {
    session.active = false;
    change_concurrency(-1);
    free_list_.push_back(s);
    return;
  }
  const util::SimTime ct_renew = session.ct_expiry - util::kMinute;
  const util::SimTime ut_renew = session.ut_expiry - 2 * util::kMinute;

  if (now_ >= ut_renew) {
    session.relogging_in = true;
    start_round(s, core::Round::kLogin1, Phase::kLogin1Arrive, manager_net_);
    return;
  }
  if (now_ >= session.next_switch) {
    // Voluntary channel switch: retune to a fresh channel of this shard
    // (the conditional Zipf draw), then a fresh SWITCH + JOIN.
    session.channel = static_cast<std::uint32_t>(part_.sample(index_, rng_));
    session.renewing_ct = false;
    start_round(s, core::Round::kSwitch1, Phase::kSwitch1Arrive, manager_net_);
    return;
  }
  if (now_ >= ct_renew) {
    session.renewing_ct = true;
    start_round(s, core::Round::kSwitch1, Phase::kSwitch1Arrive, manager_net_);
    return;
  }
  // Spurious wakeup (state advanced since scheduling): re-arm.
  go_watch(s);
}

}  // namespace p2pdrm::sim
