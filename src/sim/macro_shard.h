// One partition of the sharded macro-sim event engine.
//
// A MacroShard is a self-contained sub-simulation: it owns a subset of the
// channels (dealt by workload::ChannelPartition), the sessions watching
// them, its own event queue, its own ChaCha20 RNG stream (seeded by value
// from the master seed — see util/rng.h), a slice of each manager farm,
// and its own reservoirs / registry / tracer. Between two sync barriers a
// shard touches no shared state at all, which is what makes the engine's
// output independent of how shards are scheduled onto threads.
//
// Cross-shard coupling is deliberately minimal and barrier-synchronized:
//   - JOIN rejection probability reads the *global* concurrency as
//     (local live count + remote count from the last barrier);
//   - the coordinator reads each shard's concurrency at every barrier and
//     pushes the aggregate back via set_remote_concurrency();
//   - SLO observations are buffered per shard and replayed by the
//     coordinator in deterministic merged order.
//
// Farm slicing: a shard gets max(1, servers/S) queue servers with service
// times scaled by slice_servers * S / servers, so total modeled capacity
// stays exactly `servers` regardless of S (and the scale is exactly 1.0
// when S == 1, preserving the classic engine's integer arithmetic).
//
// Allocation: sessions live in an arena-backed segmented pool
// (util::ArenaVector) — stable addresses, no per-session malloc/free, and
// the free list recycles slots; the event queue is a flat binary heap.
//
// Latency histograms: a finished round is recorded once, into its
// (round, hour) histogram, through the histogram's owner-thread path (no
// lock: one thread touches a shard at a time, and the pool's mutex orders
// the worker's window before the coordinator's barrier). The peak,
// off-peak and whole-run histograms are not recorded into; the
// coordinator gets them folded from the hourly ones by folded_registry(),
// at every scrape and at the end of the run.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/latency.h"
#include "sim/macro_sim.h"
#include "util/arena.h"
#include "workload/workload.h"

namespace p2pdrm::sim {

class MacroShard {
 public:
  MacroShard(const MacroSimConfig& cfg,
             const workload::ChannelPartition& partition, std::size_t index,
             std::size_t num_shards);

  /// Schedule the first background arrival and this shard's flash crowds.
  void seed_initial_events();
  /// Process every queued event with time < window_end.
  void run_window(util::SimTime window_end);
  /// Close still-open traced round spans at the horizon (as failed) and
  /// flush the concurrency integral.
  void finish(util::SimTime horizon);

  // --- barrier interface (coordinator only, shard quiescent) ---

  std::int64_t concurrency() const { return concurrency_; }
  void set_remote_concurrency(std::int64_t remote) {
    remote_concurrency_ = remote;
  }
  double local_peak_concurrency() const { return local_peak_; }

  struct SloSample {
    util::SimTime when;
    core::Round round;
    util::SimTime latency;
  };
  /// Observations buffered since the last drain (coordinator clears).
  std::vector<SloSample>& slo_samples() { return slo_buffer_; }

  /// The shard's registry, with the peak/off-peak/all histograms folded
  /// from the hourly ones first (exactly; see macro_shard.cpp). Call it
  /// whenever the registry is read: at a scrape, or after finish().
  const obs::Registry& folded_registry();

  // --- results (read after finish()) ---

  std::uint64_t events() const { return events_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Moves round r's trace out of the shard (merge_results takes each
  /// round once, to free it as soon as it is merged).
  RoundTrace take_round(std::size_t r) { return std::move(rounds_[r]); }
  /// Time-weighted concurrency integral per sim hour (additive across
  /// shards, so the merged hourly curve is exact).
  const std::vector<double>& concurrency_integral() const {
    return concurrency_integral_;
  }

  struct Totals {
    std::uint64_t sessions = 0;
    std::uint64_t channel_switches = 0;
    std::uint64_t ct_renewals = 0;
    std::uint64_t ut_renewals = 0;
    std::uint64_t join_retries = 0;
    std::uint64_t logins_shed = 0;
    std::uint64_t busy_retries = 0;
    std::uint64_t busy_abandoned = 0;
  };
  const Totals& totals() const { return totals_; }

  util::SimTime um_busy() const { return um_.busy_time(); }
  util::SimTime cm_busy() const { return cm_.busy_time(); }
  std::size_t um_servers() const { return um_servers_; }
  std::size_t cm_servers() const { return cm_servers_; }

 private:
  enum class Phase : std::uint8_t {
    kArrival,       // background arrival: sample a channel, chain the next
    kCrowdArrival,  // pre-scheduled flash-crowd arrival (session = channel)
    kLogin1Arrive, kLogin1Resp,
    kLogin2Arrive, kLogin2Resp,
    kSwitch1Arrive, kSwitch1Resp,
    kSwitch2Arrive, kSwitch2Resp,
    kJoinArrive, kJoinResp,
    kAction,        // watching; decide what happens next
  };

  struct Session {
    util::SimTime end_time = 0;
    util::SimTime round_start = 0;
    util::SimTime rtt_half = 0;
    util::SimTime ut_expiry = 0;
    util::SimTime ct_expiry = 0;
    util::SimTime next_switch = 0;
    obs::SpanId round_span = 0;  // open round span of a traced session
    std::uint32_t channel = 0;
    std::uint8_t join_attempts = 0;
    std::uint8_t busy_retries = 0;  // admission-control BUSYs absorbed
    bool renewing_ct = false;
    bool relogging_in = false;
    bool joined_once = false;
    bool active = false;
    bool traced = false;
  };

  struct Event {
    util::SimTime when;
    std::uint64_t seq;
    std::uint32_t session;  // pool index; channel for kCrowdArrival
    Phase phase;
  };
  struct LaterEvent {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  double shard_peak_rate() const;
  void schedule(util::SimTime when, std::uint32_t session, Phase phase);
  void flush_concurrency(util::SimTime upto);
  void change_concurrency(int delta);

  /// A latency model with the log of its median computed once.
  struct Net {
    const LatencyModel* model;
    double log_median;
    util::SimTime sample_rtt(crypto::SecureRandom& rng) const {
      return model->sample_rtt(rng, log_median);
    }
  };
  /// The paper's peak is 18:00-24:00.
  static bool peak_hour(std::size_t hour) { return hour % 24 >= 18; }

  util::SimTime lognormal_around(double log_median, double sigma);
  util::SimTime service_time(core::Round r, double scale);
  util::SimTime client_time(core::Round r);
  void record(std::uint32_t s, core::Round r, util::SimTime latency);

  void start_round(std::uint32_t s, core::Round r, Phase arrive_phase,
                   const Net& net);
  void serve_and_respond(std::uint32_t s, core::Round r,
                         QueueStation& station, double scale,
                         Phase resp_phase);
  bool shed_login(std::uint32_t s, Phase arrive_phase);

  void dispatch(const Event& ev);
  void on_arrival(bool background, std::uint32_t channel);
  void on_login_complete(std::uint32_t s);
  void on_switch_complete(std::uint32_t s);
  void on_join_arrive(std::uint32_t s);
  void on_join_complete(std::uint32_t s);
  void go_watch(std::uint32_t s);
  util::SimTime next_due(const Session& session) const;
  void on_action(std::uint32_t s);

  const MacroSimConfig& cfg_;
  const workload::ChannelPartition& part_;
  std::size_t index_;
  std::size_t num_shards_;

  crypto::SecureRandom rng_;
  /// Dedicated stream for the background arrival process: session/service
  /// draws (which vary with flash crowds, load, etc.) never perturb the
  /// arrival schedule, so adding a crowd adds exactly its own sessions.
  crypto::SecureRandom arrival_rng_;
  obs::Tracer tracer_;
  bool trace_enabled_ = false;
  std::optional<workload::ArrivalProcess> arrivals_;
  std::size_t um_servers_;
  std::size_t cm_servers_;
  double um_scale_;
  double cm_scale_;
  QueueStation um_;
  QueueStation cm_;
  Net manager_net_;
  Net peer_net_;
  /// log() of each round's service and client-think medians.
  std::array<double, core::kNumRounds> service_log_median_ = {};
  std::array<double, core::kNumRounds> client_log_median_ = {};
  util::SimTime horizon_;
  util::SimTime now_ = 0;

  std::priority_queue<Event, std::vector<Event>, LaterEvent> queue_;
  std::uint64_t next_seq_ = 1;
  util::Arena arena_;
  util::ArenaVector<Session> pool_{arena_};
  std::vector<std::uint32_t> free_list_;

  std::int64_t concurrency_ = 0;
  std::int64_t remote_concurrency_ = 0;
  util::SimTime last_change_ = 0;
  std::vector<double> concurrency_integral_;
  double local_peak_ = 0;

  std::array<RoundTrace, core::kNumRounds> rounds_;
  obs::Registry registry_;
  /// Cached pointers into registry_ — record() is far too hot for name
  /// lookups. record() writes hist_hourly_; folded_registry() derives the
  /// other three from it.
  std::array<std::vector<obs::LatencyHistogram*>, core::kNumRounds> hist_hourly_;
  std::array<obs::LatencyHistogram*, core::kNumRounds> hist_peak_ = {};
  std::array<obs::LatencyHistogram*, core::kNumRounds> hist_offpeak_ = {};
  std::array<obs::LatencyHistogram*, core::kNumRounds> hist_all_ = {};
  /// Peak and off-peak folds of the hours before folded_hours_, which
  /// no round can land in any more.
  std::array<obs::LatencyHistogram, core::kNumRounds> closed_peak_;
  std::array<obs::LatencyHistogram, core::kNumRounds> closed_offpeak_;
  std::size_t folded_hours_ = 0;

  Totals totals_;
  std::vector<SloSample> slo_buffer_;
  bool buffer_slo_ = false;
  std::uint64_t session_counter_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace p2pdrm::sim
