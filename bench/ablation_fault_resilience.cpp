// Ablation: fault resilience with and without client failover.
//
// Runs the same scripted chaos scenario — a User Manager and a Channel
// Manager instance crash, a 30s backend partition, and a churn storm —
// against two fleets that differ in exactly one bit: AsyncClient's
// operation-level failover + automatic re-login/re-join (Config::
// resilience). Per protocol round it reports the availability seen by the
// viewers' feedback logs, plus the recovery bill (failovers, re-logins,
// rejoins) and the p50/p99 rejoin latency. The deterministic fault engine
// guarantees both arms face the exact same fault timeline.
#include <cstdio>

#include "fault/fault_engine.h"
#include "fault/report.h"
#include "net/deployment.h"
#include "sim_run.h"

using namespace p2pdrm;

namespace {

constexpr util::ChannelId kChannel = 1;
constexpr std::size_t kViewers = 12;

fault::ResilienceReport run_arm(bool resilience) {
  net::DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.default_link.latency.floor = 10 * util::kMillisecond;
  cfg.default_link.latency.median = 40 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.default_link.loss = 0.01;
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 8 * util::kMillisecond;
  cfg.um_instances = 2;
  cfg.cm_instances = 2;
  cfg.tracker_stale_age = 2 * util::kMinute;
  cfg.client_resilience = resilience;

  net::Deployment d(cfg);
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "event", region);
  d.start_channel_server(kChannel);

  for (std::size_t i = 0; i < kViewers; ++i) {
    const std::string email = "viewer-" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    net::AsyncClient& client = d.add_client(email, "pw", region);
    d.run_op(client, net::login_and_switch(client, kChannel), 5 * util::kMinute);
    d.announce(client);
    client.enable_auto_renewal();
  }

  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "10m crash-um 0\n"
      "10m crash-cm 0 0\n"
      "20m partition * 10.254.0.0/16 30s\n"
      "25m loss * 0.5 60s\n"
      "30m churn 1 4 4\n");
  fault::FaultEngineConfig engine_cfg;
  engine_cfg.arrival_region = region;
  fault::FaultEngine engine(d, plan, engine_cfg);
  engine.arm();
  d.run_until(45 * util::kMinute);

  return fault::ResilienceReport::collect(d);
}

void print_arm(const char* label, const fault::ResilienceReport& r) {
  std::printf("\n--- %s ---\n%s", label, r.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("ablation_fault_resilience", argc, argv);
  std::printf("\n=== Ablation — fault resilience: failover on vs off ===\n");
  std::printf("scenario: UM+CM instance crash @10m, 30s backend partition @20m,\n"
              "          50%% loss burst @25m, churn storm (4 out / 4 in) @30m\n");

  const fault::ResilienceReport off = run_arm(false);
  const fault::ResilienceReport on = run_arm(true);
  print_arm("failover OFF", off);
  print_arm("failover ON", on);

  std::printf("\n--- per-round availability delta ---\n");
  std::printf("%-8s %14s %14s\n", "round", "off", "on");
  for (const core::Round round : core::kAllRounds) {
    std::printf("%-8s %13.2f%% %13.2f%%\n",
                std::string(core::to_string(round)).c_str(),
                off.round(round).availability() * 100.0,
                on.round(round).availability() * 100.0);
  }
  std::printf("\nrejoins: off=%llu on=%llu; rejoin latency on: p50=%.3fs p99=%.3fs\n",
              static_cast<unsigned long long>(off.rejoins),
              static_cast<unsigned long long>(on.rejoins),
              util::to_seconds(on.rejoin_p50()), util::to_seconds(on.rejoin_p99()));
  std::printf("sessions still valid at end: off=%zu/%zu on=%zu/%zu\n",
              off.clients_current, off.clients_total - off.clients_departed,
              on.clients_current, on.clients_total - on.clients_departed);

  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  j.begin_object();
  const auto emit_arm = [&j](const char* name, const fault::ResilienceReport& r) {
    j.key(name).begin_object();
    j.key("availability").begin_object();
    for (const core::Round round : core::kAllRounds) {
      j.kv(std::string(core::to_string(round)),
           r.round(round).availability());
    }
    j.end_object();
    j.kv("rejoins", static_cast<std::uint64_t>(r.rejoins));
    j.kv("clients_current", static_cast<std::uint64_t>(r.clients_current));
    j.end_object();
  };
  emit_arm("failover_off", off);
  emit_arm("failover_on", on);
  j.kv("rejoin_p50_seconds", util::to_seconds(on.rejoin_p50()));
  j.kv("rejoin_p99_seconds", util::to_seconds(on.rejoin_p99()));
  j.end_object();
  run.finish_artifact();
  return 0;
}
