#include "sim/macro_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "sim/macro_shard.h"
#include "util/rng.h"

namespace p2pdrm::sim {

// Persistent worker pool: threads park between windows and wake on a
// generation bump. Worker t drives shards t, t+T, t+2T, ... — a static
// assignment, so no work-stealing nondeterminism can exist even in
// principle (not that it would matter: shards don't share state within a
// window).
class MacroEngine::Pool {
 public:
  Pool(std::vector<std::unique_ptr<MacroShard>>& shards, std::size_t threads)
      : shards_(shards), busy_seconds_(threads, 0.0) {
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers_.emplace_back([this, t] { worker_main(t); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void run_window(util::SimTime window_end) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      window_end_ = window_end;
      done_ = 0;
      ++generation_;
    }
    start_cv_.notify_all();
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return done_ == workers_.size(); });
    if (error_) {
      std::exception_ptr err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  /// Per-worker wall time spent inside run_window calls (read between
  /// windows or after the last one — workers are parked then).
  std::vector<double> busy_seconds() const {
    std::lock_guard<std::mutex> lk(mu_);
    return busy_seconds_;
  }

 private:
  void worker_main(std::size_t tid) {
    std::uint64_t seen = 0;
    for (;;) {
      util::SimTime end = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        end = window_end_;
      }
      const auto t0 = std::chrono::steady_clock::now();
      try {
        for (std::size_t s = tid; s < shards_.size(); s += workers_.size()) {
          shards_[s]->run_window(end);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
      const std::chrono::duration<double> busy =
          std::chrono::steady_clock::now() - t0;
      {
        std::lock_guard<std::mutex> lk(mu_);
        busy_seconds_[tid] += busy.count();
        ++done_;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::unique_ptr<MacroShard>>& shards_;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t done_ = 0;
  util::SimTime window_end_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<double> busy_seconds_;
};

MacroEngine::MacroEngine(const MacroSimConfig& config)
    : cfg_(config.validated()),
      partition_(cfg_.num_channels, cfg_.zipf_exponent, cfg_.shards),
      threads_used_(0),
      horizon_(static_cast<util::SimTime>(cfg_.days) * util::kDay),
      key_rng_(util::split_seed(cfg_.seed, util::lane::kKeyRotation)) {
  std::size_t threads = cfg_.threads;
  if (threads == 0) {
    threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  threads_used_ = std::min(threads, cfg_.shards);

  shards_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(
        std::make_unique<MacroShard>(cfg_, partition_, s, cfg_.shards));
  }

  if (cfg_.obs.tracer != nullptr) {
    coord_tracer_.set_capacity(cfg_.obs.tracer->capacity());
  }
  if (cfg_.key_rotation.enabled) {
    rotations_issued_ = &coord_registry_.counter("macro.key.rotations_issued");
    epochs_delivered_ = &coord_registry_.counter("macro.key.epochs_delivered");
    key_lag_ = &coord_registry_.histogram("macro.key.delivery_lag_us");
    key_staleness_ = &coord_registry_.gauge("macro.key.max_staleness_us");
    next_rotation_ = cfg_.key_rotation.interval;
  }
  if (cfg_.obs.timeseries != nullptr || cfg_.obs.slo != nullptr) {
    next_scrape_ = cfg_.obs.scrape_interval;
  }
}

MacroEngine::~MacroEngine() = default;

MacroSimResult MacroEngine::run() {
  for (auto& shard : shards_) shard->seed_initial_events();
  run_windows();
  for (auto& shard : shards_) shard->finish(horizon_);
  return merge_results();
}

void MacroEngine::run_windows() {
  std::unique_ptr<Pool> pool;
  if (threads_used_ > 1) pool = std::make_unique<Pool>(shards_, threads_used_);

  // Per-shard event counters (the deterministic side of the runtime
  // telemetry): delta-incremented at every barrier, so the final value is
  // exactly the shard's lifetime event count.
  std::vector<obs::Counter*> shard_event_counters;
  shard_event_counters.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shard_event_counters.push_back(
        &coord_registry_.counter("macro.shard.events", std::to_string(s)));
  }
  obs::Gauge& imbalance_gauge =
      coord_registry_.gauge("macro.shard.imbalance_max_permille");
  std::vector<std::uint64_t> events_prev(shards_.size(), 0);
  double imbalance_sum = 0;
  std::uint64_t imbalance_windows = 0;

  util::SimTime t = 0;
  std::int64_t total = 0;  // global concurrency as of the last barrier
  while (t < horizon_) {
    const util::SimTime t_next =
        std::min<util::SimTime>(t + cfg_.shard_sync_interval, horizon_);
    const auto w0 = std::chrono::steady_clock::now();
    if (pool) {
      pool->run_window(t_next);
    } else {
      for (auto& shard : shards_) shard->run_window(t_next);
    }
    const auto w1 = std::chrono::steady_clock::now();
    runtime_.window_wall_seconds +=
        std::chrono::duration<double>(w1 - w0).count();
    ++runtime_.windows;

    // Load imbalance over this window: max/mean of the per-shard event
    // deltas. A pure function of (config, seed, shards) — thread-safe to
    // put in the digested registry.
    std::uint64_t window_total = 0, window_max = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::uint64_t events = shards_[s]->events();
      const std::uint64_t delta = events - events_prev[s];
      events_prev[s] = events;
      shard_event_counters[s]->inc(delta);
      window_total += delta;
      window_max = std::max(window_max, delta);
    }
    if (window_total > 0) {
      const double mean = static_cast<double>(window_total) /
                          static_cast<double>(shards_.size());
      const double imbalance = static_cast<double>(window_max) / mean;
      imbalance_sum += imbalance;
      ++imbalance_windows;
      runtime_.imbalance_max = std::max(runtime_.imbalance_max, imbalance);
      imbalance_gauge.set_max(std::llround(imbalance * 1000.0));
    }

    coordinate(t, t_next, static_cast<double>(total));
    runtime_.coordinator_wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - w1)
            .count();

    std::int64_t new_total = 0;
    for (auto& shard : shards_) new_total += shard->concurrency();
    for (auto& shard : shards_) {
      shard->set_remote_concurrency(new_total - shard->concurrency());
    }
    barrier_peak_ = std::max(barrier_peak_, static_cast<double>(new_total));
    total = new_total;
    t = t_next;
  }

  if (imbalance_windows > 0) {
    runtime_.imbalance_mean =
        imbalance_sum / static_cast<double>(imbalance_windows);
  }
  if (pool) {
    runtime_.worker_busy_seconds = pool->busy_seconds();
    double busy_total = 0;
    for (const double b : runtime_.worker_busy_seconds) busy_total += b;
    const double capacity = static_cast<double>(threads_used_) *
                            runtime_.window_wall_seconds;
    runtime_.barrier_wait_seconds = std::max(0.0, capacity - busy_total);
    if (capacity > 0) {
      runtime_.barrier_wait_fraction =
          runtime_.barrier_wait_seconds / capacity;
    }
  } else {
    // Single-threaded fan-out: the caller is the only worker and never
    // waits at a barrier.
    runtime_.worker_busy_seconds = {runtime_.window_wall_seconds};
  }
}

void MacroEngine::coordinate(util::SimTime t0, util::SimTime t1, double load) {
  (void)t0;
  const bool want_obs =
      cfg_.obs.slo != nullptr || cfg_.obs.timeseries != nullptr;
  if (want_obs) {
    // Merge every shard's buffered observations into one stream ordered by
    // (time, shard, buffer position) — a total order that does not depend
    // on thread scheduling — and replay it through the SLO monitor with
    // scrape ticks interleaved at their own times.
    struct Tagged {
      util::SimTime when;
      std::uint32_t shard;
      std::uint32_t idx;
      core::Round round;
      util::SimTime latency;
    };
    std::vector<Tagged> samples;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      auto& buffer = shards_[s]->slo_samples();
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        samples.push_back(Tagged{buffer[i].when, static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(i),
                                 buffer[i].round, buffer[i].latency});
      }
      buffer.clear();
    }
    std::sort(samples.begin(), samples.end(),
              [](const Tagged& a, const Tagged& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.idx < b.idx;
              });
    std::size_t i = 0;
    while (next_scrape_ != 0 && next_scrape_ < t1) {
      if (cfg_.obs.slo != nullptr) {
        for (; i < samples.size() && samples[i].when <= next_scrape_; ++i) {
          cfg_.obs.slo->observe(to_string(samples[i].round), samples[i].when,
                                samples[i].latency);
        }
      }
      do_scrape(next_scrape_, load);
      next_scrape_ += cfg_.obs.scrape_interval;
    }
    if (cfg_.obs.slo != nullptr) {
      for (; i < samples.size(); ++i) {
        cfg_.obs.slo->observe(to_string(samples[i].round), samples[i].when,
                              samples[i].latency);
      }
    }
  }
  if (cfg_.key_rotation.enabled) {
    while (next_rotation_ < t1) {
      on_key_rotation(next_rotation_, std::max(1.0, load));
      next_rotation_ += cfg_.key_rotation.interval;
    }
  }
}

void MacroEngine::do_scrape(util::SimTime at, double load) {
  ++coordinator_events_;
  if (cfg_.obs.slo != nullptr) cfg_.obs.slo->tick(at, load);
  if (cfg_.obs.timeseries != nullptr) {
    cfg_.obs.timeseries->record("load.concurrent", at, load);
    scrape_registry_.reset();
    for (auto& shard : shards_) {
      scrape_registry_.merge_from(shard->folded_registry());
    }
    scrape_registry_.merge_from(coord_registry_);
    cfg_.obs.timeseries->scrape(scrape_registry_, at);
  }
}

std::size_t MacroEngine::sample_depth(std::size_t levels, std::size_t fanout) {
  // Depth of a delivery path, weighted by level population: a full
  // `fanout`-ary tree holds fanout^d peers at depth d, so deep levels
  // dominate. Draws from the rotation stream only.
  double total = 0, weight = 1;
  for (std::size_t d = 1; d <= levels; ++d) {
    weight *= static_cast<double>(fanout);
    total += weight;
  }
  double x = key_rng_.uniform_real() * total;
  weight = 1;
  for (std::size_t d = 1; d <= levels; ++d) {
    weight *= static_cast<double>(fanout);
    if (x < weight) return d;
    x -= weight;
  }
  return levels;
}

void MacroEngine::on_key_rotation(util::SimTime at, double population) {
  ++coordinator_events_;
  const KeyRotationModel& kr = cfg_.key_rotation;
  const std::uint64_t serial = rotation_counter_++;
  rotations_issued_->inc();
  std::size_t levels = 1;
  double capacity = static_cast<double>(kr.fanout);
  while (capacity < population && levels < 24) {
    capacity *= static_cast<double>(kr.fanout);
    ++levels;
  }
  const bool traced = cfg_.obs.tracer != nullptr &&
                      cfg_.obs.trace_rotation_every > 0 &&
                      serial % cfg_.obs.trace_rotation_every == 0;
  obs::SpanId root = 0;
  if (traced) {
    root = coord_tracer_.begin_span("server", "KEY_ROTATION", 0, at);
    coord_tracer_.tag(root, "serial", std::to_string(serial & 0xff));
    coord_tracer_.tag(root, "levels", std::to_string(levels));
  }
  util::SimTime max_lag = 0;
  for (std::size_t i = 0; i < kr.sampled_peers; ++i) {
    const std::size_t depth = sample_depth(levels, kr.fanout);
    util::SimTime lag = 0;
    for (std::size_t hop = 0; hop < depth; ++hop) {
      lag += cfg_.peer_net.sample_rtt(key_rng_) / 2 + kr.relay_cost;
    }
    key_lag_->record(lag);
    epochs_delivered_->inc();
    // The key activates announce_lead after the announcement; a peer whose
    // delivery path is longer than that holds a stale epoch.
    const util::SimTime staleness = lag - kr.announce_lead;
    if (staleness > key_staleness_->value()) key_staleness_->set(staleness);
    max_lag = std::max(max_lag, lag);
    if (traced) {
      const obs::SpanId deliver = coord_tracer_.begin_span(
          "p2p", "deliver key", 1000000 + i, at, root);
      coord_tracer_.tag(deliver, "depth", std::to_string(depth));
      coord_tracer_.end_span(deliver, at + lag, true);
    }
  }
  if (traced) coord_tracer_.end_span(root, at + max_lag, true);
}

MacroSimResult MacroEngine::merge_results() {
  MacroSimResult result;
  result.shards_used = cfg_.shards;
  result.threads_used = threads_used_;
  runtime_.shard_events.clear();
  for (auto& shard : shards_) runtime_.shard_events.push_back(shard->events());
  result.runtime = runtime_;

  // Metrics: shard registries in index order, then the coordinator's.
  result.registry = std::make_shared<obs::Registry>();
  for (auto& shard : shards_) {
    result.registry->merge_from(shard->folded_registry());
  }
  result.registry->merge_from(coord_registry_);

  // Reservoirs: deterministic weighted merge per (round, hour) cell. With
  // one shard the merge degenerates to an exact copy.
  std::vector<const analysis::Reservoir*> parts(shards_.size());
  const std::size_t hours = static_cast<std::size_t>(cfg_.days) * 24;
  for (std::size_t r = 0; r < core::kNumRounds; ++r) {
    // The round's shard traces, freed at the end of this iteration, once
    // merged: the merged result reuses their memory instead of adding to it.
    std::vector<RoundTrace> taken;
    taken.reserve(shards_.size());
    for (auto& shard : shards_) taken.push_back(shard->take_round(r));
    RoundTrace& trace = result.rounds[r];
    trace.hourly.reserve(hours);
    const std::uint64_t stream = static_cast<std::uint64_t>(r) << 20;
    for (std::size_t h = 0; h < hours; ++h) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        parts[s] = &taken[s].hourly[h];
      }
      trace.hourly.push_back(analysis::Reservoir::merged(
          cfg_.reservoir_per_hour,
          util::split_seed(cfg_.seed, util::lane::kMerge + stream + h), parts));
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      parts[s] = &taken[s].peak;
    }
    trace.peak = analysis::Reservoir::merged(
        cfg_.reservoir_cdf,
        util::split_seed(cfg_.seed, util::lane::kMerge + stream + 0xFFFFF),
        parts);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      parts[s] = &taken[s].offpeak;
    }
    trace.offpeak = analysis::Reservoir::merged(
        cfg_.reservoir_cdf,
        util::split_seed(cfg_.seed, util::lane::kMerge + stream + 0xFFFFE),
        parts);
    for (const RoundTrace& t : taken) trace.count += t.count;
  }

  // The per-hour concurrency integral is additive, so the merged diurnal
  // curve is exact at any shard count.
  result.hourly_concurrency.assign(hours, 0.0);
  for (auto& shard : shards_) {
    const std::vector<double>& integral = shard->concurrency_integral();
    for (std::size_t h = 0; h < hours; ++h) {
      result.hourly_concurrency[h] +=
          integral[h] / static_cast<double>(util::kHour);
    }
  }

  std::size_t um_servers = 0, cm_servers = 0;
  double um_busy = 0, cm_busy = 0;
  for (auto& shard : shards_) {
    const MacroShard::Totals& t = shard->totals();
    result.sessions += t.sessions;
    result.channel_switches += t.channel_switches;
    result.ct_renewals += t.ct_renewals;
    result.ut_renewals += t.ut_renewals;
    result.join_retries += t.join_retries;
    result.logins_shed += t.logins_shed;
    result.busy_retries += t.busy_retries;
    result.busy_abandoned += t.busy_abandoned;
    result.events += shard->events();
    um_servers += shard->um_servers();
    cm_servers += shard->cm_servers();
    um_busy += static_cast<double>(shard->um_busy());
    cm_busy += static_cast<double>(shard->cm_busy());
  }
  result.events += coordinator_events_;
  result.um_utilization =
      um_busy / (static_cast<double>(horizon_) * static_cast<double>(um_servers));
  result.cm_utilization =
      cm_busy / (static_cast<double>(horizon_) * static_cast<double>(cm_servers));

  // Single shard tracks the exact event-level peak; with several, the
  // barrier sums are the finest global view that exists.
  result.peak_observed_concurrency = shards_.size() == 1
                                         ? shards_[0]->local_peak_concurrency()
                                         : barrier_peak_;

  if (cfg_.obs.tracer != nullptr) {
    for (auto& shard : shards_) {
      cfg_.obs.tracer->absorb(std::move(shard->tracer()));
    }
    cfg_.obs.tracer->absorb(std::move(coord_tracer_));
  }
  return result;
}

}  // namespace p2pdrm::sim
