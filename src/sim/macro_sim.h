// Week-scale simulation of the production deployment (§VI).
//
// Reproduces the measurement setting of the paper's evaluation: a diurnal
// population of viewers (evening peak, pre-dawn trough, ~tens of thousands
// concurrent) logging in, switching channels, joining overlays, and
// renewing tickets against a small farm of User Managers and Channel
// Managers. The protocol *logic* is exact (which rounds happen when, what
// gets renewed, what a renewal costs); the *costs* are a calibrated model:
// per-request service times measured from this repo's own crypto/protocol
// microbenchmarks, heavy-tailed residential RTTs, and c-server FIFO queues
// for the manager farms. Running real RSA for ~80 million simulated rounds
// would measure our CPU, not the architecture.
//
// Output: per-hour latency reservoirs for the five protocol rounds
// (LOGIN1, LOGIN2, SWITCH1, SWITCH2, JOIN), the concurrency curve, and
// peak/off-peak splits — everything Figs. 5 and 6 plot.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "core/round.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/latency.h"
#include "util/time.h"
#include "workload/workload.h"

namespace p2pdrm::sim {

/// Mean server-side service time per request type. Defaults were calibrated
/// with bench/microbench_crypto and bench/microbench_protocol (1024-bit
/// RSA): LOGIN2/SWITCH2 are dominated by an RSA sign + verify, LOGIN1 by
/// symmetric crypto and the DB lookup, JOIN by the peer's RSA encrypt.
struct ServiceCosts {
  util::SimTime login1 = 300 * util::kMicrosecond;
  util::SimTime login2 = 8 * util::kMillisecond;
  util::SimTime switch1 = 700 * util::kMicrosecond;
  util::SimTime switch2 = 7 * util::kMillisecond;
  util::SimTime join = 4 * util::kMillisecond;
  /// Lognormal sigma applied to every service draw.
  double dispersion = 0.35;
};

/// Client-side processing charged to each round (key generation, checksum
/// over the binary, RSA sign of the challenge, RSA decrypt of the session
/// key). These are what make LOGIN2/JOIN medians sit above LOGIN1's.
struct ClientCosts {
  util::SimTime login1 = 25 * util::kMillisecond;
  util::SimTime login2 = 180 * util::kMillisecond;
  util::SimTime switch1 = 15 * util::kMillisecond;
  util::SimTime switch2 = 60 * util::kMillisecond;
  util::SimTime join = 120 * util::kMillisecond;
  double dispersion = 0.6;
};

/// Live observability hooks, all optional and non-owning. The engine
/// drives them on the simulation clock: sampled sessions emit full span
/// trees per round (client round span with hop/queue/serve children),
/// key rotations emit fan-out span trees, and every scrape interval the
/// registry is snapshotted into the time series and the SLO monitor ticks
/// with the current concurrency as the load signal. None of the hooks
/// consume randomness, so enabling them never perturbs the simulation.
struct MacroObsConfig {
  obs::Tracer* tracer = nullptr;
  /// Trace every Nth arriving session (0 = no session tracing).
  std::uint64_t trace_session_every = 0;
  /// Trace every Nth key rotation (0 = no rotation tracing).
  std::uint64_t trace_rotation_every = 1;
  obs::TimeSeries* timeseries = nullptr;
  obs::SloMonitor* slo = nullptr;
  util::SimTime scrape_interval = 5 * util::kMinute;
};

/// Content-key rotation pipeline model (§IV): every `interval` the channel
/// server mints a key epoch, announced `announce_lead` ahead of its
/// activation, and pushes it down a `fanout`-ary overlay tree. Per epoch,
/// `sampled_peers` delivery paths are sampled (depth weighted by level
/// population, one peer-net half-RTT plus `relay_cost` per level) into:
///   macro.key.rotations_issued   counter, epochs minted
///   macro.key.epochs_delivered   counter, sampled deliveries
///   macro.key.delivery_lag       histogram, announce -> install lag (us)
///   macro.key.max_staleness_us   gauge, worst install-after-activation
struct KeyRotationModel {
  bool enabled = false;
  util::SimTime interval = util::kMinute;
  util::SimTime announce_lead = 10 * util::kSecond;
  util::SimTime relay_cost = 500 * util::kMicrosecond;
  std::size_t fanout = 4;
  std::size_t sampled_peers = 16;
};

struct MacroSimConfig {
  int days = 7;
  /// Target concurrent viewers at the diurnal peak (the paper observed
  /// ~25-27k on the plotted week, 60k+ historic peak).
  double peak_concurrent = 25000;
  workload::DiurnalProfile profile = workload::tv_profile();
  workload::SessionModel session;
  std::size_t num_channels = 200;
  double zipf_exponent = 0.9;

  /// Manager farm sizes (the deployment used 2 UMs and 4 CMs, §VI).
  std::size_t user_manager_servers = 2;
  std::size_t channel_manager_servers = 4;

  util::SimTime user_ticket_lifetime = 30 * util::kMinute;
  util::SimTime channel_ticket_lifetime = 10 * util::kMinute;

  LatencyModel manager_net;  // client <-> manager RTT
  LatencyModel peer_net{20 * util::kMillisecond, 180 * util::kMillisecond, 0.9,
                        30 * util::kSecond};  // client <-> peer RTT

  ServiceCosts costs;
  ClientCosts client_costs;

  /// JOIN behaviour: probability a sampled peer refuses (no capacity) is
  /// base + sensitivity * (concurrency / peak_concurrent); every refusal
  /// costs one extra peer RTT. This is the weak load coupling behind the
  /// paper's JOIN correlation of 0.13.
  double join_base_reject = 0.05;
  double join_load_sensitivity = 0.02;
  std::size_t max_join_attempts = 6;

  std::vector<workload::FlashCrowd> flash_crowds;

  /// Login admission control at the User Manager farm: when a fresh
  /// LOGIN1/LOGIN2 arrival would wait longer than this for a free server,
  /// it is shed with a BUSY (renewals and switches are never shed — session
  /// continuity beats new admissions). 0 = disabled (legacy: everyone
  /// queues, and a flash crowd drags every round's latency down with it).
  util::SimTime login_admission_max_wait = 0;
  /// Shed viewers re-arrive after this long (the BUSY retry-after hint)...
  util::SimTime busy_retry_after = 2 * util::kSecond;
  /// ...up to this many times before giving up for good.
  std::size_t max_busy_retries = 5;

  std::uint64_t seed = 42;
  std::size_t reservoir_per_hour = 3000;
  std::size_t reservoir_cdf = 200000;

  MacroObsConfig obs;
  KeyRotationModel key_rotation;

  /// --- sharded engine ---
  /// Number of event-engine partitions. Channels are dealt to shards in
  /// snake order over Zipf rank; each shard runs its own event queue, RNG
  /// stream, and manager-farm slice. Output depends on `shards` but NEVER
  /// on `threads`: same (seed, shards) gives byte-identical results at any
  /// thread count. 1 = the classic single-partition engine.
  std::size_t shards = 1;
  /// Worker threads driving the shards (clamped to `shards`; 0 = one per
  /// hardware core).
  std::size_t threads = 1;
  /// Barrier cadence: shards synchronize (concurrency exchange, key
  /// rotation, scrapes, SLO feed) at fixed multiples of this interval.
  util::SimTime shard_sync_interval = util::kMinute;

  /// Every constraint violation in this config, as "field: why" strings;
  /// empty means the config is runnable.
  std::vector<std::string> validate() const;
  /// The single validated entry point: returns a copy of the config or
  /// throws std::invalid_argument listing every violation. run_macro_sim
  /// and the SimRun bench harness both go through here.
  MacroSimConfig validated() const;
};

struct RoundTrace {
  std::vector<analysis::Reservoir> hourly;  // one reservoir per sim hour
  analysis::Reservoir peak{1, 1};           // 18:00-24:00 (paper's split)
  analysis::Reservoir offpeak{1, 1};        // 00:00-18:00
  std::uint64_t count = 0;

  /// Median latency (seconds) per hour; NaN-free: hours with no samples
  /// report 0.
  std::vector<double> hourly_median() const;
};

/// Registry metric names used by the macro-sim (and the Fig. 5/6 benches):
/// per-round per-hour latency histograms, the paper's peak/off-peak split,
/// and a whole-run histogram per round. Values are recorded in microseconds.
std::string hourly_histogram_name(core::Round r, std::size_t hour);
std::string split_histogram_name(core::Round r, bool peak);
std::string round_histogram_name(core::Round r);

/// Engine runtime telemetry: where the sharded run spent its wall-clock
/// and how evenly the load spread across shards. The event-count fields
/// (shard_events, windows, imbalance_*) are pure functions of
/// (config, seed, shards) — identical at any thread count — while the
/// *_seconds fields are wall-clock measurements and must stay OUT of any
/// byte-identity digest.
struct MacroRuntimeStats {
  /// Events processed per shard over the whole run, shard-index order.
  std::vector<std::uint64_t> shard_events;
  /// Sync windows (barriers) executed.
  std::uint64_t windows = 0;
  /// Load imbalance = max/mean events per shard within one sync window,
  /// averaged over windows with any events, and the worst single window.
  /// 1.0 is perfect balance; S (the shard count) is one shard doing
  /// everything.
  double imbalance_mean = 1.0;
  double imbalance_max = 1.0;
  /// Wall time inside shard fan-out (includes barrier wait) and inside the
  /// coordinator's barrier work.
  double window_wall_seconds = 0;
  double coordinator_wall_seconds = 0;
  /// Worker-thread wall time lost waiting at barriers:
  /// threads * window_wall - sum(worker busy). 0 for single-threaded runs.
  double barrier_wait_seconds = 0;
  /// barrier_wait / (threads * window_wall); 0 when nothing was measured.
  double barrier_wait_fraction = 0;
  /// Per-worker busy seconds inside run_window calls, worker-index order.
  std::vector<double> worker_busy_seconds;
};

struct MacroSimResult {
  std::array<RoundTrace, core::kNumRounds> rounds;
  /// Bucketed latency histograms for every round (hourly + peak/off-peak +
  /// whole-run, see the *_histogram_name helpers): the registry-backed twin
  /// of the sampling reservoirs above. Quantiles agree with the reservoirs
  /// within bucket resolution without storing a single sample. Shared so the
  /// result stays copyable.
  std::shared_ptr<obs::Registry> registry;
  /// Time-weighted mean concurrency per sim hour.
  std::vector<double> hourly_concurrency;
  std::uint64_t sessions = 0;
  std::uint64_t channel_switches = 0;
  std::uint64_t ct_renewals = 0;
  std::uint64_t ut_renewals = 0;
  std::uint64_t join_retries = 0;
  /// Admission control (login_admission_max_wait > 0): fresh logins shed
  /// with a BUSY, their deferred re-arrivals, and the viewers who gave up
  /// after max_busy_retries BUSYs.
  std::uint64_t logins_shed = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t busy_abandoned = 0;
  double peak_observed_concurrency = 0;
  double um_utilization = 0;
  double cm_utilization = 0;
  /// Total simulation events dispatched (shard event loops + coordinator
  /// barrier work) — the numerator of the bench's events/sec figure.
  std::uint64_t events = 0;
  std::size_t shards_used = 1;
  std::size_t threads_used = 1;
  /// Engine wall-clock/load-balance telemetry (see MacroRuntimeStats for
  /// which fields are deterministic).
  MacroRuntimeStats runtime;

  const RoundTrace& round(core::Round r) const {
    return rounds[static_cast<std::size_t>(r)];
  }
};

MacroSimResult run_macro_sim(const MacroSimConfig& config);

}  // namespace p2pdrm::sim
