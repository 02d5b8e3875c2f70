// Ablation: ticket lifetimes (§IV-B, §IV-C, §IV-D tradeoffs).
//
// Channel Ticket lifetime trades Channel Manager renewal load against how
// quickly a severed account actually stops receiving (a peer only evicts
// when the ticket expires unrenewed). User Ticket lifetime trades User
// Manager re-login load against the minimum lead time for deploying a new
// viewing policy (a blackout must be configured at least one User Ticket
// lifetime ahead) and the usefulness of a stolen ticket.
#include <cstdio>

#include "sim_run.h"

using namespace p2pdrm;

int main(int argc, char** argv) {
  bench::SimRun run("ablation_ticket_lifetime", argc, argv);
  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  j.begin_object();

  bench::print_header("Ablation — Channel Ticket lifetime");
  std::printf("%-10s %14s %14s %16s %18s\n", "lifetime", "CM req/s", "renewals",
              "p95 SWITCH2", "cutoff delay (max)");
  j.key("channel_ticket").begin_array();
  for (const util::SimTime ct : {2 * util::kMinute, 5 * util::kMinute,
                                 10 * util::kMinute, 20 * util::kMinute,
                                 30 * util::kMinute}) {
    sim::MacroSimConfig cfg = bench::paper_config();
    cfg.days = 2;
    cfg.channel_ticket_lifetime = ct;
    cfg = run.finalize(cfg);
    const sim::MacroSimResult result = sim::run_macro_sim(cfg);
    const auto& sw2 = result.round(core::Round::kSwitch2);
    const double horizon_s = cfg.days * 86400.0;
    const double cm_rps =
        static_cast<double>(result.round(core::Round::kSwitch1).count +
                            sw2.count) /
        horizon_s;
    std::printf("%6lldmin %14.1f %14llu %15.3fs %17llds\n",
                static_cast<long long>(ct / util::kMinute), cm_rps,
                static_cast<unsigned long long>(result.ct_renewals),
                sw2.peak.quantile(0.95),
                static_cast<long long>(ct / util::kSecond));
    j.begin_object();
    j.kv("lifetime_minutes", static_cast<std::int64_t>(ct / util::kMinute));
    j.kv("cm_requests_per_second", cm_rps);
    j.kv("renewals", result.ct_renewals);
    j.kv("p95_switch2_seconds", sw2.peak.quantile(0.95));
    j.kv("cutoff_delay_seconds", static_cast<std::int64_t>(ct / util::kSecond));
    j.end_object();
  }
  j.end_array();
  std::printf("cutoff delay = how long an account that moved machines (or was "
              "revoked) can keep\nreceiving at the old peer before the "
              "unrenewed ticket expires (§IV-D).\n");

  bench::print_header("Ablation — User Ticket lifetime");
  std::printf("%-10s %14s %14s %20s\n", "lifetime", "UM req/s", "re-logins",
              "policy lead time");
  j.key("user_ticket").begin_array();
  for (const util::SimTime ut : {10 * util::kMinute, 30 * util::kMinute,
                                 60 * util::kMinute, 120 * util::kMinute}) {
    sim::MacroSimConfig cfg = bench::paper_config();
    cfg.days = 2;
    cfg.user_ticket_lifetime = ut;
    cfg = run.finalize(cfg);
    const sim::MacroSimResult result = sim::run_macro_sim(cfg);
    const double horizon_s = cfg.days * 86400.0;
    const double um_rps =
        static_cast<double>(result.round(core::Round::kLogin1).count +
                            result.round(core::Round::kLogin2).count) /
        horizon_s;
    std::printf("%6lldmin %14.1f %14llu %17lldmin\n",
                static_cast<long long>(ut / util::kMinute), um_rps,
                static_cast<unsigned long long>(result.ut_renewals),
                static_cast<long long>(ut / util::kMinute));
    j.begin_object();
    j.kv("lifetime_minutes", static_cast<std::int64_t>(ut / util::kMinute));
    j.kv("um_requests_per_second", um_rps);
    j.kv("re_logins", result.ut_renewals);
    j.kv("policy_lead_minutes", static_cast<std::int64_t>(ut / util::kMinute));
    j.end_object();
  }
  j.end_array();
  j.end_object();
  run.finish_artifact();
  std::printf("policy lead time = a blackout (or any policy change) must be "
              "deployed at least one\nUser Ticket lifetime before it takes "
              "effect, or outstanding tickets outlive it (§IV-C).\nthe paper "
              "recommends lifetimes below the average program length.\n");
  return 0;
}
