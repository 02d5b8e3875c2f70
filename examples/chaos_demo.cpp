// Chaos demo: run a textual fault schedule against a live deployment and
// watch the service ride it out.
//
//   ./chaos_demo                # built-in schedule
//   ./chaos_demo my-plan.txt    # your own (see src/fault/fault_plan.h)
//   ./chaos_demo --baseline     # no faults; exits nonzero on SLO violation
//   ./chaos_demo --transport=thread
//                               # packet-level chaos (latency spike + loss
//                               # burst) against the multithreaded live
//                               # transport: real event loops, wall-clock
//                               # timers, protocol rounds driven through
//                               # the storm; exits nonzero unless every
//                               # round rides it out
//   ./chaos_demo --flash-crowd  # overload-protected farm vs a 3x-capacity
//                               # login stampede; exits nonzero unless the
//                               # farm sheds with BUSY (never silently),
//                               # keeps SWITCH/renewal p99 within 2x the
//                               # unloaded baseline, and returns to
//                               # SLO-passing steady state after the drain
//   ./chaos_demo --crash-test   # arm the flight recorder, drive one real
//                               # session on the threaded transport, then
//                               # abort() on an event loop; the process must
//                               # die leaving a parseable post-mortem dump
//                               # (P2PDRM_FLIGHT_OUT, default
//                               # flight_crash.json) — the CI crash gate
//   ./chaos_demo --crash-recovery
//                               # durable farm state vs crash-at-worst-moment
//                               # schedules (torn journal tails, wiped media,
//                               # stretched replication); exits nonzero unless
//                               # a device migration admitted by a surviving
//                               # sibling is never dual-admitted after the
//                               # crashed instance recovers, renewals keep
//                               # succeeding against survivors, the torn tail
//                               # is rejected on replay, and permanent audit
//                               # loss stays bounded by the replication lag
//
// Set P2PDRM_TRACE_OUT=<path> to capture protocol-round spans for the whole
// run and write them as Chrome trace_event JSON (load in about:tracing or
// https://ui.perfetto.dev). P2PDRM_TS_OUT=<path> writes the scraped
// time-series CSV; P2PDRM_BREAKDOWN_OUT=<path> writes the trace-driven
// critical-path table (requires tracing). CI does exactly this and archives
// all three.
//
// An SLO monitor rides along in every mode: each client's successful rounds
// feed per-round p95/p99 objectives and a load/latency correlation, printed
// at the end. With --baseline the run must stay within budget to exit 0 —
// that is the CI regression gate for the no-fault deployment. --flash-crowd
// is the matching gate for the overload path (bounded queues, priority
// admission control, retry budgets).
//
// The schedule below crashes a User Manager farm instance, partitions the
// whole client population away from the backend for 30 seconds, skews a
// Channel Manager clock, and throws a churn storm at the overlay — all
// deterministic, all survivable with client resilience on.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "analysis/critical_path.h"
#include "fault/fault_engine.h"
#include "fault/report.h"
#include "net/deployment.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

using namespace p2pdrm;

namespace {

constexpr util::ChannelId kChannel = 1;

const char* kDefaultSchedule =
    "# chaos_demo default schedule\n"
    "5m  crash-um 0            # primary User Manager dies; farm survives\n"
    "8m  restart-um 0\n"
    "10m partition * 10.254.0.0/16 30s   # backend unreachable for 30s\n"
    "12m delay 0.0.0.0/0 150ms 60s       # everything slows down\n"
    "15m skew 10 2m            # Channel Manager clock runs 2 minutes fast\n"
    "18m churn 1 5 5           # 5 viewers crash, 5 new ones arrive\n";

/// Provision `viewers` watching kChannel: each logged in, joined,
/// announced, and auto-renewing before the next one starts.
void provision_viewers(net::Deployment& d, geo::RegionId region,
                       std::size_t viewers) {
  for (std::size_t i = 0; i < viewers; ++i) {
    const std::string email = "viewer-" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    net::AsyncClient& client = d.add_client(email, "pw", region);
    d.run_op(client, net::login_and_switch(client, kChannel), 5 * util::kMinute);
    d.announce(client);
    client.enable_auto_renewal();
  }
}

/// Count non-departed clients, and how many of them hold a live session
/// (authenticated with an unexpired channel ticket — a stale ticket object
/// survives a dead session, so has_value() alone would miss decay).
struct EndState {
  std::size_t alive = 0;
  std::size_t joined = 0;
};
EndState end_state(const net::Deployment& d, util::SimTime now) {
  EndState s;
  for (const auto& client : d.clients()) {
    if (client->departed()) continue;
    ++s.alive;
    if (client->logged_in() && client->channel_ticket() &&
        !client->channel_ticket()->ticket.expired_at(now)) {
      ++s.joined;
    }
  }
  return s;
}

/// Write whatever artifacts the P2PDRM_*_OUT env vars request. Returns
/// false on a file-open error.
bool dump_artifacts(net::Deployment& d, const obs::TimeSeries& timeseries) {
  if (const char* trace_out = std::getenv("P2PDRM_TRACE_OUT")) {
    std::ofstream out(trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "chaos_demo: cannot write %s\n", trace_out);
      return false;
    }
    out << obs::spans_to_chrome_trace(d.tracer());
    std::printf("wrote %zu spans (%llu dropped at capacity) to %s\n",
                d.tracer().spans().size(),
                static_cast<unsigned long long>(d.tracer().spans_dropped()),
                trace_out);
  }
  if (const char* ts_out = std::getenv("P2PDRM_TS_OUT")) {
    std::ofstream out(ts_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "chaos_demo: cannot write %s\n", ts_out);
      return false;
    }
    out << timeseries.to_csv();
    std::printf("wrote %zu time series (%zu scrapes) to %s\n",
                timeseries.names().size(), timeseries.scrapes(), ts_out);
  }
  if (const char* breakdown_out = std::getenv("P2PDRM_BREAKDOWN_OUT")) {
    if (std::getenv("P2PDRM_TRACE_OUT") != nullptr) {
      std::ofstream out(breakdown_out, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "chaos_demo: cannot write %s\n", breakdown_out);
        return false;
      }
      const analysis::CriticalPathReport cp =
          analysis::analyze_critical_path(d.tracer());
      out << cp.to_table();
      std::printf("wrote critical-path breakdown (%zu rounds) to %s\n",
                  cp.rounds.size(), breakdown_out);
    } else {
      std::fprintf(stderr,
                   "chaos_demo: P2PDRM_BREAKDOWN_OUT needs P2PDRM_TRACE_OUT "
                   "(tracing) set\n");
    }
  }
  return true;
}

std::vector<obs::SloObjective> steady_state_objectives() {
  // A clean round is ~100-200 ms (two 40 ms-median hops + processing). With
  // 1% packet loss and tens of samples per round, a single 3 s
  // retransmission timeout IS the p95, so the targets absorb one retransmit
  // at p95 and two (3 s + 6 s backoff) at p99. Anything beyond that in a
  // no-fault run is a regression.
  return {
      {"LOGIN1", 4 * util::kSecond, 10 * util::kSecond, 10 * util::kMinute},
      {"LOGIN2", 4 * util::kSecond, 10 * util::kSecond, 10 * util::kMinute},
      {"SWITCH1", 4 * util::kSecond, 10 * util::kSecond, 10 * util::kMinute},
      {"SWITCH2", 4 * util::kSecond, 10 * util::kSecond, 10 * util::kMinute},
      {"JOIN", 4 * util::kSecond, 10 * util::kSecond, 10 * util::kMinute},
  };
}

bool gate(bool ok, const char* what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

/// The flash-crowd survival gate: a stampede of brand-new viewers arrives
/// at ~3x the User Manager's login capacity. The overload-protected farm
/// must shed the excess with BUSY (never silently), keep SWITCH/renewal
/// p99 within 2x the unloaded baseline while the crowd lands, and be back
/// within the normal steady-state SLOs once the backlog drains.
int run_flash_crowd() {
  std::printf("=== flash-crowd survival run ===\n");

  net::DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.tracing = std::getenv("P2PDRM_TRACE_OUT") != nullptr;
  cfg.default_link.latency.floor = 10 * util::kMillisecond;
  cfg.default_link.latency.median = 40 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.default_link.loss = 0.01;
  // Slow, single-worker servers make capacity concrete: one LOGIN2 costs
  // 250 ms of the UM worker, so the farm admits ~4 fresh logins/second.
  cfg.processing.light = 10 * util::kMillisecond;
  cfg.processing.heavy = 250 * util::kMillisecond;
  cfg.um_instances = 2;
  cfg.cm_instances = 2;
  cfg.tracker_stale_age = 2 * util::kMinute;
  cfg.client_resilience = true;
  // The overload layer under test: bounded queue, priority admission
  // control past the high-water mark, client retry budgets and breakers.
  cfg.overload.workers = 1;
  cfg.overload.queue_capacity = 64;
  cfg.overload.high_water = 4;
  cfg.overload.busy_retry_after = 500 * util::kMillisecond;
  cfg.client_retry_budget = 8;
  cfg.client_retry_budget_refill = 0.5;
  cfg.client_breaker_threshold = 5;
  cfg.client_breaker_cooldown = 10 * util::kSecond;

  net::Deployment d(cfg);
  obs::TimeSeries timeseries;
  timeseries.set_scrape_filters(
      {"client.round.*", "keys.*", "load.*", "server.*"});
  obs::SloMonitor slo_baseline(steady_state_objectives());
  d.enable_scraping(&timeseries, &slo_baseline, 5 * util::kSecond);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "live", region);
  d.start_channel_server(kChannel);
  constexpr std::size_t kViewers = 10;
  provision_viewers(d, region, kViewers);

  // Phase 1 — unloaded steady state, long enough for a full channel-ticket
  // renewal cycle. Its SWITCH p99 is the baseline the storm is judged by.
  d.run_until(12 * util::kMinute);
  const double base_switch1 = slo_baseline.status("SWITCH1").p99_us;
  const double base_switch2 = slo_baseline.status("SWITCH2").p99_us;
  std::printf("unloaded baseline: SWITCH1 p99 = %.0f us, SWITCH2 p99 = %.0f us\n",
              base_switch1, base_switch2);

  // Phase 2 — the stampede. Judged by a fresh monitor whose p99 budgets are
  // 2x the just-measured baseline (floored at 1 s so a lucky quiet baseline
  // cannot make the gate degenerate).
  const auto storm_budget = [](double baseline_us) {
    return std::max<std::int64_t>(static_cast<std::int64_t>(2 * baseline_us),
                                  util::kSecond);
  };
  obs::SloMonitor slo_storm({
      {"SWITCH1", 0, storm_budget(base_switch1), 10 * util::kMinute},
      {"SWITCH2", 0, storm_budget(base_switch2), 10 * util::kMinute},
  });
  d.enable_scraping(&timeseries, &slo_storm, 5 * util::kSecond);

  // 48 arrivals over 4 s = 12 fresh logins/second against ~4/second of UM
  // capacity: a 3x overload for the duration of the ramp.
  constexpr std::size_t kCrowd = 48;
  fault::FaultPlan plan;
  plan.flash_crowd(d.now() + 10 * util::kSecond, kChannel, kCrowd,
                   4 * util::kSecond);
  std::printf("\n=== fault schedule ===\n%s", plan.to_string().c_str());
  fault::FaultEngineConfig engine_cfg;
  engine_cfg.arrival_region = region;  // the channel is regional
  fault::FaultEngine engine(d, plan, engine_cfg);
  engine.arm();
  // Ride out the stampede and its BUSY-deferred retries, through the next
  // renewal cycle (renewals must keep completing while the crowd lands).
  d.run_for(8 * util::kMinute);

  // Phase 3 — after the drain window the farm must be back inside the
  // normal steady-state budgets, measured by a third fresh monitor.
  obs::SloMonitor slo_recovered(steady_state_objectives());
  d.enable_scraping(&timeseries, &slo_recovered, 5 * util::kSecond);
  d.run_for(12 * util::kMinute);

  std::printf("\n=== fault log ===\n");
  for (const std::string& line : engine.log()) std::printf("%s\n", line.c_str());

  // Shed accounting: every shed request must have been answered with a
  // BUSY envelope — overload is never a silent drop.
  const obs::Counter* busy_sent = d.registry().find_counter("server.busy_sent");
  const std::uint64_t busy = busy_sent != nullptr ? busy_sent->value() : 0;
  std::uint64_t shed = 0;
  std::printf("\n=== shed accounting ===\n");
  for (const auto& [label, counter] : d.registry().family("server.shed")) {
    std::printf("server.shed{%s} = %llu\n", label.c_str(),
                static_cast<unsigned long long>(counter->value()));
    shed += counter->value();
  }
  std::uint64_t busy_received = 0, budget_dry = 0, fast_fails = 0;
  for (const auto& client : d.clients()) {
    busy_received += client->busy_received();
    budget_dry += client->retry_budget_exhaustions();
    fast_fails += client->breaker_fast_fails();
  }
  std::printf("server.busy_sent = %llu; clients saw busy=%llu "
              "budget-exhaustions=%llu breaker-fast-fails=%llu\n",
              static_cast<unsigned long long>(busy),
              static_cast<unsigned long long>(busy_received),
              static_cast<unsigned long long>(budget_dry),
              static_cast<unsigned long long>(fast_fails));

  std::printf("\n=== storm window (budgets = 2x unloaded baseline) ===\n%s",
              slo_storm.report().c_str());
  std::printf("\n=== recovery window (steady-state budgets) ===\n%s",
              slo_recovered.report().c_str());

  const EndState end = end_state(d, d.now());
  if (!dump_artifacts(d, timeseries)) return 1;

  std::printf("\n=== flash-crowd gates ===\n");
  bool ok = true;
  ok &= gate(engine.flash_crowd_arrivals() == kCrowd,
             "the whole stampede arrived");
  ok &= gate(busy > 0, "overload actually shed fresh logins (busy_sent > 0)");
  ok &= gate(shed == busy,
             "every shed request was answered with BUSY (no silent drops)");
  ok &= gate(slo_storm.within_budget(),
             "SWITCH/renewal p99 stayed within 2x baseline during the crowd");
  ok &= gate(slo_recovered.within_budget(),
             "steady-state SLOs pass again after the drain window");
  ok &= gate(end.joined == end.alive && end.alive >= kViewers + kCrowd,
             "every surviving client is authenticated and joined");
  std::printf("end state: %zu clients alive, %zu authenticated and joined\n",
              end.alive, end.joined);
  return ok ? 0 : 1;
}

/// Log in `client` and switch it onto kChannel; true iff both succeeded.
bool join_channel(net::Deployment& d, net::AsyncClient& client,
                  util::SimTime budget) {
  return d.run_op(client, net::login_and_switch(client, kChannel), budget) ==
         core::DrmError::kOk;
}

/// One synchronous renewal; true iff it completed with kOk.
bool renew(net::Deployment& d, net::AsyncClient& client, util::SimTime budget) {
  const auto op = [&client](net::AsyncClient::Callback done) {
    client.renew_channel_ticket(std::move(done));
  };
  return d.run_op(client, op, budget) == core::DrmError::kOk;
}

/// The crash-recovery durability gate (journaled farm state, src/store).
///
/// The scenario is the paper's one-account-one-session rule under the worst
/// crash schedule we can write: a viewer migrates to a second device, and
/// the Channel Manager instance that admitted the *first* device dies with a
/// torn journal tail the moment the migration would be most confusable.
/// The surviving sibling must admit the new device (fresh issues are written
/// through and eagerly replicated), renewals must keep succeeding against
/// survivors during the outage, and once the crashed instance recovers via
/// snapshot + replay + anti-entropy it must refuse the stale device — never
/// dual-admit. A second schedule wipes an instance's durable media entirely
/// (anti-entropy full-state transfer is all it has) while the replication
/// interval is stretched by fault verb, and a third crashes a User Manager
/// instance and provisions a brand-new account against the survivor.
int run_crash_recovery() {
  std::printf("=== crash-recovery durability run ===\n");

  net::DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.tracing = std::getenv("P2PDRM_TRACE_OUT") != nullptr;
  cfg.default_link.latency.floor = 10 * util::kMillisecond;
  cfg.default_link.latency.median = 40 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.default_link.loss = 0.01;
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 8 * util::kMillisecond;
  cfg.um_instances = 2;
  cfg.cm_instances = 2;
  cfg.tracker_stale_age = 2 * util::kMinute;
  cfg.client_resilience = true;
  cfg.durability.enabled = true;
  cfg.durability.replication_interval = 500 * util::kMillisecond;
  cfg.durability.sync_fresh_issues = true;
  // Aggressive compaction: snapshots (and op-cache trims) happen well within
  // the run, so a wiped instance genuinely needs the full-state-transfer
  // path — its siblings no longer hold the ops its journal lost.
  cfg.durability.snapshot_every = 16;
  cfg.durability.viewing_audit_cap = 4096;
  cfg.durability.replay_cost_per_record = 200;  // 200 us per replayed record

  net::Deployment d(cfg);
  obs::TimeSeries timeseries;
  timeseries.set_scrape_filters({"client.round.*", "store.*", "server.*"});
  obs::SloMonitor slo(steady_state_objectives());
  d.enable_scraping(&timeseries, &slo, 5 * util::kSecond);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "live", region);
  d.start_channel_server(kChannel);
  constexpr std::size_t kViewers = 8;
  provision_viewers(d, region, kViewers);
  d.run_until(3 * util::kMinute);  // steady state, renewal cycles underway

  bool ok = true;

  // --- Phase 1: device migration under a crash at the worst moment ---
  // The migrating devices are deliberately NON-resilient clients: with
  // resilience on, a refused renewal escalates into a full re-login +
  // re-switch (a fresh issue) and would mask the enforcement signal this
  // gate exists to observe.
  std::printf("\n=== phase 1: torn-tail crash during a device migration ===\n");
  d.add_user("migrator@example.com", "pw");
  net::AsyncClient::Config mig_cfg =
      d.make_client_config("migrator@example.com", "pw", region);
  mig_cfg.resilience = false;
  auto dev_a = std::make_unique<net::AsyncClient>(mig_cfg, d.network(),
                                                  crypto::SecureRandom(0xa11ce));
  ok &= gate(join_channel(d, *dev_a, 2 * util::kMinute),
             "device A logged in and joined");
  const util::UserIN mig_user = dev_a->user_ticket()->ticket.user_in;

  // Ride until device A's renewal window opens (§IV-D: renewal only near
  // expiry), then renew: the renewal is an asynchronous audit-only record,
  // journaled on the advertised instance but not yet fsynced.
  d.run_until(dev_a->channel_ticket()->ticket.expiry_time - 2 * util::kMinute);
  ok &= gate(renew(d, *dev_a, util::kMinute),
             "in-window renewal accepted before the crash");
  // A replication tick can race the renewal response and fsync the record;
  // in that case wait for the next viewer auto-renewal to stage one.
  const util::SimTime poll_deadline = d.now() + 10 * util::kMinute;
  while (d.cm_store(0, 0)->unsynced_ops() == 0 && d.now() < poll_deadline &&
         d.sim().step()) {
  }
  const std::uint64_t staged = d.cm_store(0, 0)->unsynced_ops();
  std::printf("staged (unsynced) audit records on cm[0][0]: %llu\n",
              static_cast<unsigned long long>(staged));
  ok &= gate(staged > 0, "async audit records staged ahead of the crash");

  // Worst moment: the instance that admitted device A dies right now, with
  // a torn partial write of the staged tail. Fresh issues were written
  // through, so only audit records can be lost.
  d.crash_cm_unsynced(0, 0);

  net::AsyncClient::Config mig_cfg_b =
      d.make_client_config("migrator@example.com", "pw", region);
  mig_cfg_b.resilience = false;
  auto dev_b = std::make_unique<net::AsyncClient>(mig_cfg_b, d.network(),
                                                  crypto::SecureRandom(0xb0b));
  ok &= gate(join_channel(d, *dev_b, 3 * util::kMinute),
             "device migration admitted by the surviving sibling");

  // Outage continues until device B's own renewal window opens: a pure
  // renewal against the survivor must succeed (its fresh issue was written
  // through there).
  d.run_until(dev_b->channel_ticket()->ticket.expiry_time - 2 * util::kMinute);
  ok &= gate(renew(d, *dev_b, util::kMinute),
             "renewal succeeded against the survivor during the outage");

  d.restart_cm_instance(0, 0);  // snapshot + replay + anti-entropy
  d.run_for(10 * util::kSecond);

  // The stale device renews inside its own (renewal-extended) window,
  // against the recovered instance its cached channel list still points at.
  // Recovery pulled the migration via anti-entropy, so it must refuse.
  d.run_until(dev_a->channel_ticket()->ticket.expiry_time - 2 * util::kMinute);
  const bool a_renews = renew(d, *dev_a, util::kMinute);
  std::printf("post-recovery renewal: stale device A %s\n",
              a_renews ? "ADMITTED" : "refused");
  ok &= gate(!a_renews,
             "zero dual admissions: the recovered instance refuses the stale device");

  const obs::Counter* corrupt = d.registry().find_counter("store.replay.corrupt");
  ok &= gate(corrupt != nullptr && corrupt->value() > 0,
             "torn journal tail rejected on replay (store.replay.corrupt > 0)");
  const obs::Gauge* window =
      d.registry().find_gauge("store.audit.max_loss_window_us");
  const std::int64_t window_us = window != nullptr ? window->value() : 0;
  std::printf("permanent audit loss window: %lld us (replication interval %lld us)\n",
              static_cast<long long>(window_us),
              static_cast<long long>(cfg.durability.replication_interval));
  ok &= gate(window_us <= cfg.durability.replication_interval,
             "permanent audit loss bounded by the replication interval");

  // --- Phase 2: wiped media + stretched replication, via fault verbs ---
  std::printf("\n=== phase 2: wipe-state under replication-lag (fault verbs) ===\n");
  fault::FaultPlan plan;
  const util::SimTime t0 = d.now();
  plan.replication_lag(t0 + 5 * util::kSecond, 2 * util::kSecond);
  plan.wipe_state_cm(t0 + 10 * util::kSecond, 0, 1);
  plan.restart_cm(t0 + 30 * util::kSecond, 0, 1);
  plan.replication_lag(t0 + 40 * util::kSecond, 500 * util::kMillisecond);
  std::printf("%s", plan.to_string().c_str());
  fault::FaultEngine engine(d, plan, {});
  engine.arm();
  d.run_for(2 * util::kMinute);
  std::printf("\n=== fault log ===\n");
  for (const std::string& line : engine.log()) std::printf("%s\n", line.c_str());

  const obs::Counter* full_xfer =
      d.registry().find_counter("store.recovery.full_transfers");
  ok &= gate(full_xfer != nullptr && full_xfer->value() >= 1,
             "wiped instance rebuilt via anti-entropy full-state transfer");
  d.replicate_now();
  const services::ViewingLog* log0 = d.cm_viewing_log(0, 0);
  const services::ViewingLog* log1 = d.cm_viewing_log(0, 1);
  const services::ViewingLog::Entry* latest0 = log0->latest(mig_user, kChannel);
  const services::ViewingLog::Entry* latest1 = log1->latest(mig_user, kChannel);
  ok &= gate(latest0 != nullptr && latest1 != nullptr &&
                 latest0->addr == latest1->addr && latest0->time == latest1->time &&
                 latest0->addr == dev_b->config().addr,
             "replicas converged on the migrated device as the single session");

  // --- Phase 3: User Manager crash; signup served by the survivor ---
  std::printf("\n=== phase 3: UM instance crash + outage-era signup ===\n");
  d.crash_um_unsynced(0);
  d.add_user("late@example.com", "pw");  // provisioned against the survivor
  net::AsyncClient& late = d.add_client("late@example.com", "pw", region);
  ok &= gate(join_channel(d, late, 3 * util::kMinute),
             "outage-era signup logged in via the surviving UM instance");
  d.restart_um_instance(0);
  d.run_for(10 * util::kSecond);
  const services::UserDirectory* dir0 = d.um_directory(0);
  ok &= gate(dir0 != nullptr && dir0->users.count("late@example.com") == 1,
             "restarted UM pulled the outage-era signup via anti-entropy");

  // --- Phase 4: back to steady state, fresh SLO monitor ---
  obs::SloMonitor slo_recovered(steady_state_objectives());
  d.enable_scraping(&timeseries, &slo_recovered, 5 * util::kSecond);
  d.run_for(10 * util::kMinute);
  std::printf("\n=== recovery window (steady-state budgets) ===\n%s",
              slo_recovered.report().c_str());
  ok &= gate(slo_recovered.within_budget(),
             "steady-state SLOs pass again after the crash schedule");

  std::printf("\n=== store metrics ===\n");
  for (const auto& [name, counter] : d.registry().counters()) {
    if (name.rfind("store.", 0) == 0) {
      std::printf("%s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter.value()));
    }
  }
  for (const auto& [name, gauge] : d.registry().gauges()) {
    if (name.rfind("store.", 0) == 0) {
      std::printf("%s = %lld\n", name.c_str(),
                  static_cast<long long>(gauge.value()));
    }
  }

  const EndState end = end_state(d, d.now());
  std::printf("\nend state: %zu clients alive, %zu authenticated and joined\n",
              end.alive, end.joined);
  ok &= gate(end.joined >= kViewers,
             "every resilient viewer rode out the whole crash schedule");
  if (!dump_artifacts(d, timeseries)) return 1;
  std::printf("\n=== crash-recovery verdict: %s ===\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// Wall-clock bound on one live protocol op: a lost completion fails its
/// gate instead of hanging the demo.
constexpr util::SimTime kLiveOpTimeout = 60 * util::kSecond;

/// Run `op` on every viewer at once — one waiting thread per viewer, the op
/// itself on the viewer's own loop — and count the kOk completions.
std::size_t run_wave(
    net::Deployment& d, const std::vector<net::AsyncClient*>& viewers,
    const std::function<std::function<void(net::AsyncClient::Callback)>(
        net::AsyncClient&)>& make_op) {
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> waiters;
  waiters.reserve(viewers.size());
  for (net::AsyncClient* c : viewers) {
    waiters.emplace_back([&d, &ok, c, op = make_op(*c)] {
      if (d.run_op(*c, op, kLiveOpTimeout) == core::DrmError::kOk) ok.fetch_add(1);
    });
  }
  for (std::thread& t : waiters) t.join();
  return ok.load();
}

/// One channel re-switch (the storm-driving round).
std::function<void(net::AsyncClient::Callback)> switch_op(net::AsyncClient& c) {
  return [&c](net::AsyncClient::Callback done) {
    c.switch_channel(kChannel, std::move(done));
  };
}

/// Packet-level chaos against the multithreaded live transport: a latency
/// spike and a loss burst hit the whole data plane (the fault engine's
/// interceptor now runs concurrently on every event loop) while protocol
/// rounds are continuously driven through the storm. Crash/restart verbs
/// stay sim-only — they are control-plane surgery; the live data plane is
/// what this mode exercises.
int run_live_chaos() {
  std::printf("=== live chaos: packet faults on the threaded transport ===\n");

  // Post-mortem safety net for the live run: if anything in the storm
  // crashes the process, the recorder's signal handler leaves per-thread
  // event rings behind. Opt-in via P2PDRM_FLIGHT_OUT; a clean run writes
  // nothing (CI asserts exactly that under TSan).
  if (obs::FlightRecorder::global().arm_from_env()) {
    std::printf("flight recorder armed -> %s\n",
                obs::FlightRecorder::global().dump_path());
  }

  net::DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = 4;
  // Tight links and a short retransmission timeout: the storm is measured
  // in wall-clock seconds, so recovery must be too.
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 4 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;
  cfg.request_timeout = 400 * util::kMillisecond;
  cfg.max_retries = 6;
  cfg.client_resilience = true;
  cfg.root_peer_capacity = 32;
  net::Deployment d(cfg);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "live", region);
  d.start_channel_server(kChannel);

  constexpr std::size_t kViewers = 8;
  std::vector<net::AsyncClient*> viewers;
  for (std::size_t i = 0; i < kViewers; ++i) {
    const std::string email = "viewer-" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    viewers.push_back(&d.add_client(email, "pw", region));
  }
  // Announce runs on each viewer's own loop: it touches loop-confined state.
  const std::size_t provisioned = run_wave(d, viewers, [&d](net::AsyncClient& c) {
    return net::login_and_switch(c, kChannel, [&d, &c] { d.announce(c); });
  });
  std::printf("%zu/%zu viewers joined on the live transport\n", provisioned,
              kViewers);

  const fault::AddrBlock everywhere = fault::AddrBlock::parse("*");
  fault::FaultPlan plan;
  plan.latency_spike(d.now() + 1 * util::kSecond, 2 * util::kSecond, everywhere,
                     50 * util::kMillisecond);
  plan.loss_burst(d.now() + 4 * util::kSecond, 2 * util::kSecond, everywhere,
                  0.25);
  std::printf("\n=== fault schedule ===\n%s", plan.to_string().c_str());
  fault::FaultEngine engine(d, plan, {});
  engine.arm();

  // Drive re-switches continuously through the storm window; resilience
  // plus retransmission must carry every round across the spike and the
  // burst (real timers, real concurrent loops).
  const util::SimTime storm_end = d.now() + 6500 * util::kMillisecond;
  std::uint64_t storm_rounds = 0, storm_failures = 0;
  while (d.now() < storm_end) {
    storm_rounds += viewers.size();
    storm_failures += viewers.size() - run_wave(d, viewers, switch_op);
  }

  // Calm weather again: one final wave after the rules expired.
  const std::size_t recovered = run_wave(d, viewers, switch_op);

  d.transport().shutdown();  // quiesce before reading loop-confined state

  std::printf("\n=== fault log ===\n");
  for (const std::string& line : engine.log()) std::printf("%s\n", line.c_str());
  const net::Network& net = d.network();
  std::printf("storm: %llu rounds driven, %llu failed\n",
              static_cast<unsigned long long>(storm_rounds),
              static_cast<unsigned long long>(storm_failures));
  std::printf("fault verdicts: dropped=%llu delayed=%llu\n",
              static_cast<unsigned long long>(engine.packets_dropped()),
              static_cast<unsigned long long>(engine.packets_delayed()));
  std::printf("packet fates: sent=%llu delivered=%llu "
              "dropped: injected=%llu link=%llu no-destination=%llu\n",
              static_cast<unsigned long long>(net.packets_sent()),
              static_cast<unsigned long long>(net.packets_delivered()),
              static_cast<unsigned long long>(net.packets_dropped_injected()),
              static_cast<unsigned long long>(net.packets_dropped_link()),
              static_cast<unsigned long long>(
                  net.packets_dropped_no_destination()));

  std::printf("\n=== live chaos gates ===\n");
  bool ok = true;
  ok &= gate(provisioned == kViewers, "every viewer joined before the storm");
  ok &= gate(engine.packets_dropped() + engine.packets_delayed() > 0,
             "the fault rules really touched the live data plane");
  ok &= gate(storm_failures == 0,
             "every protocol round rode out the storm (resilience + retries)");
  ok &= gate(recovered == kViewers, "post-storm wave completed cleanly");
  return ok ? 0 : 1;
}

/// Deliberate crash on the live transport: arm the flight recorder, drive
/// one real session so the rings hold genuine breadcrumbs (net.send, timer
/// fires), then abort() inside a posted task on an event loop. The signal
/// handler must leave a parseable dump behind — CI runs this expecting a
/// nonzero exit and validates the dump's JSON. Returns only on failure.
int run_crash_test() {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (!recorder.arm_from_env()) recorder.arm("flight_crash.json");
  std::printf("=== crash test: flight recorder armed -> %s ===\n",
              recorder.dump_path());

  net::DeploymentConfig cfg;
  cfg.seed = 7;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = 2;
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 3 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;
  net::Deployment d(cfg);
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "crash", region);
  d.start_channel_server(kChannel);
  d.add_user("crash@example.com", "pw");
  net::AsyncClient& c = d.add_client("crash@example.com", "pw", region);
  if (d.run_op(c, net::login_and_switch(c, kChannel), kLiveOpTimeout) !=
      core::DrmError::kOk) {
    std::fprintf(stderr, "crash test: provisioning session failed\n");
    return 1;
  }

  d.network().post(c.config().node, 0, [] {
    obs::FlightRecorder::global().record("crash.test", 0, 0, "deliberate");
    std::abort();  // the handler dumps the rings, then re-raises
  });
  std::this_thread::sleep_for(std::chrono::seconds(10));
  std::fprintf(stderr, "crash test FAILED: posted abort never fired\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool baseline = false;
  const char* schedule_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      baseline = true;
    } else if (arg == "--flash-crowd") {
      return run_flash_crowd();
    } else if (arg == "--crash-recovery") {
      return run_crash_recovery();
    } else if (arg == "--crash-test") {
      return run_crash_test();
    } else if (arg.rfind("--transport=", 0) == 0) {
      const std::string transport = arg.substr(std::string("--transport=").size());
      if (transport == "thread") return run_live_chaos();
      if (transport != "sim") {
        std::fprintf(stderr, "chaos_demo: unknown --transport=%s (want sim|thread)\n",
                     transport.c_str());
        return 1;
      }
      // sim is the default; fall through to the schedule-driven run
    } else {
      schedule_path = argv[i];
    }
  }

  std::string schedule = kDefaultSchedule;
  if (schedule_path != nullptr) {
    std::ifstream in(schedule_path);
    if (!in) {
      std::fprintf(stderr, "chaos_demo: cannot read %s\n", schedule_path);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    schedule = buf.str();
  }

  fault::FaultPlan plan;
  if (baseline) {
    std::printf("=== baseline run: no faults, SLO budget enforced ===\n");
  } else {
    try {
      plan = fault::FaultPlan::parse(schedule);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "chaos_demo: %s\n", e.what());
      return 1;
    }
    std::printf("=== fault schedule (%zu events) ===\n%s", plan.size(),
                plan.to_string().c_str());
  }

  const char* trace_out = std::getenv("P2PDRM_TRACE_OUT");

  net::DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.tracing = trace_out != nullptr;
  cfg.default_link.latency.floor = 10 * util::kMillisecond;
  cfg.default_link.latency.median = 40 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.default_link.loss = 0.01;
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 8 * util::kMillisecond;
  cfg.um_instances = 2;     // a farm worth crashing members of
  cfg.cm_instances = 2;
  cfg.tracker_stale_age = 2 * util::kMinute;
  cfg.client_resilience = true;

  net::Deployment d(cfg);

  // Deployment-scale SLOs (see steady_state_objectives for the rationale).
  obs::SloMonitor slo(steady_state_objectives());
  obs::TimeSeries timeseries;
  timeseries.set_scrape_filters(
      {"client.round.*", "keys.*", "load.*", "server.*"});
  d.enable_scraping(&timeseries, &slo, 5 * util::kSecond);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "live", region);
  d.start_channel_server(kChannel);

  constexpr std::size_t kViewers = 10;
  provision_viewers(d, region, kViewers);
  std::printf("\n%zu viewers watching channel %u; releasing the chaos...\n",
              kViewers, kChannel);

  fault::FaultEngineConfig engine_cfg;
  engine_cfg.arrival_region = region;
  fault::FaultEngine engine(d, plan, engine_cfg);
  engine.arm();
  d.run_until(25 * util::kMinute);

  std::printf("\n=== fault log ===\n");
  for (const std::string& line : engine.log()) std::printf("%s\n", line.c_str());
  std::printf("overlay verdicts: dropped=%llu delayed=%llu\n",
              static_cast<unsigned long long>(engine.packets_dropped()),
              static_cast<unsigned long long>(engine.packets_delayed()));
  const net::Network& net = d.network();
  std::printf("packet fates: sent=%llu delivered=%llu "
              "dropped: injected=%llu link=%llu no-destination=%llu\n",
              static_cast<unsigned long long>(net.packets_sent()),
              static_cast<unsigned long long>(net.packets_delivered()),
              static_cast<unsigned long long>(net.packets_dropped_injected()),
              static_cast<unsigned long long>(net.packets_dropped_link()),
              static_cast<unsigned long long>(
                  net.packets_dropped_no_destination()));

  std::printf("\n%s", fault::ResilienceReport::collect(d).to_string().c_str());

  std::printf("\n=== SLO / load-correlation monitor ===\n%s",
              slo.report().c_str());

  const EndState end = end_state(d, d.now());
  std::printf("\nend state: %zu clients alive, %zu authenticated and joined\n",
              end.alive, end.joined);

  if (!dump_artifacts(d, timeseries)) return 1;

  bool ok = end.joined == end.alive;  // every survivor must have recovered
  if (baseline && !slo.within_budget()) {
    std::fprintf(stderr, "chaos_demo: baseline run violated round SLOs\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
