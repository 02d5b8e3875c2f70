// Ablation: flash crowd at a live-event start (§I).
//
// "Live events' having well-defined start and end times leads to highly
// correlated service request arrivals ... Instead of limiting scalability,
// highly correlated viewing behavior gives P2P systems their competitive
// advantage." A crowd of extra viewers slams the system at the event start
// (on top of the normal diurnal evening); the managers' stateless ticket
// work and the self-scaling overlay absorb it without visible latency
// movement. Compare each hour's medians with and without the crowd.
#include <cstdio>

#include "sim_run.h"

using namespace p2pdrm;

int main(int argc, char** argv) {
  bench::SimRun run("ablation_flash_crowd", argc, argv);
  bench::print_header("Ablation — flash crowd at event start (day 1, 20:00)");

  sim::MacroSimConfig base = bench::paper_config();
  base.days = 2;
  base = run.finalize(base);

  sim::MacroSimConfig crowded = base;
  workload::FlashCrowd crowd;
  crowd.start = util::kDay + 20 * util::kHour;  // day 1, 20:00 — on-peak
  crowd.extra_sessions =
      static_cast<std::size_t>(0.6 * base.peak_concurrent);  // +60% instantly
  crowd.ramp = 2 * util::kMinute;
  crowded.flash_crowds.push_back(crowd);

  const sim::MacroSimResult without = sim::run_macro_sim(base);
  const sim::MacroSimResult with = sim::run_macro_sim(crowded);
  std::printf("baseline: ");
  bench::print_run_summary(without);
  std::printf("crowded:  ");
  bench::print_run_summary(with);

  std::printf("\n%-6s %12s %12s | %12s %12s | %12s %12s\n", "hour", "users(base)",
              "users(crowd)", "LOGIN2 base", "LOGIN2 crowd", "JOIN base",
              "JOIN crowd");
  const auto login2_base = without.round(core::Round::kLogin2).hourly_median();
  const auto login2_crowd = with.round(core::Round::kLogin2).hourly_median();
  const auto join_base = without.round(core::Round::kJoin).hourly_median();
  const auto join_crowd = with.round(core::Round::kJoin).hourly_median();
  for (std::size_t h = 40; h < 48; ++h) {  // day 1, 16:00-24:00
    std::printf("d1/%-4zu %12.0f %12.0f | %11.3fs %11.3fs | %11.3fs %11.3fs\n",
                h % 24, without.hourly_concurrency[h], with.hourly_concurrency[h],
                login2_base[h], login2_crowd[h], join_base[h], join_crowd[h]);
  }

  const double extra_at_peak =
      with.hourly_concurrency[44] - without.hourly_concurrency[44];
  const double login2_shift = login2_crowd[44] - login2_base[44];
  std::printf("\nat the event hour: +%.0f concurrent users, LOGIN2 median moved "
              "%+.0f ms\n", extra_at_peak, login2_shift * 1000);
  std::printf("expected shape: the crowd lifts concurrency by tens of percent "
              "within minutes while\nthe manager medians stay within noise — "
              "ticket issuance is cheap and stateless, and\nthe join load lands "
              "on the (self-scaling) peers.\n");

  // --- admission control on an undersized farm ---
  //
  // Halve the User Manager farm so the same crowd genuinely saturates it,
  // then compare letting everyone queue (the legacy model: every login —
  // fresh or renewal — eats the backlog) against shedding fresh logins with
  // BUSY once the estimated wait passes 1 s. Shedding is never silent: shed
  // viewers re-arrive after the retry-after hint, up to 5 times.
  sim::MacroSimConfig strained = crowded;
  strained.user_manager_servers = 1;
  sim::MacroSimConfig admitted = strained;
  admitted.login_admission_max_wait = 1 * util::kSecond;

  const sim::MacroSimResult queued = sim::run_macro_sim(strained);
  const sim::MacroSimResult shed = sim::run_macro_sim(admitted);
  const auto login2_queued = queued.round(core::Round::kLogin2).hourly_median();
  const auto login2_shed = shed.round(core::Round::kLogin2).hourly_median();

  bench::print_header("Undersized UM farm (1 server): admission control off vs on");
  std::printf("queued:   ");
  bench::print_run_summary(queued);
  std::printf("admitted: ");
  bench::print_run_summary(shed);
  std::printf("\n%-6s %12s %12s | %14s %14s\n", "hour", "users(off)",
              "users(on)", "LOGIN2 off", "LOGIN2 on");
  for (std::size_t h = 42; h < 47; ++h) {
    std::printf("d1/%-4zu %12.0f %12.0f | %13.3fs %13.3fs\n", h % 24,
                queued.hourly_concurrency[h], shed.hourly_concurrency[h],
                login2_queued[h], login2_shed[h]);
  }
  std::printf("\nadmission control: shed=%llu busy-retries=%llu abandoned=%llu "
              "(baseline run sheds %llu)\n",
              static_cast<unsigned long long>(shed.logins_shed),
              static_cast<unsigned long long>(shed.busy_retries),
              static_cast<unsigned long long>(shed.busy_abandoned),
              static_cast<unsigned long long>(queued.logins_shed));
  std::printf("UM utilization: off=%.2f on=%.2f\n", queued.um_utilization,
              shed.um_utilization);
  std::printf("expected shape: the crowd's arrival spike transiently outruns "
              "the halved farm\n(visible as an event-hour LOGIN2 bump with "
              "admission off and zero sheds elsewhere);\nadmission control "
              "converts that backlog into counted BUSY deferrals — shed, "
              "retried,\nor abandoned, never silently dropped — and the "
              "admitted logins keep the\nwell-provisioned median.\n");

  run.begin_artifact(crowded);
  obs::JsonWriter& j = run.json();
  j.begin_object();
  j.kv("extra_users_at_event_hour", extra_at_peak);
  j.kv("login2_median_shift_ms", login2_shift * 1000);
  j.kv("baseline_peak_concurrency", without.peak_observed_concurrency);
  j.kv("crowded_peak_concurrency", with.peak_observed_concurrency);
  j.key("undersized_admission").begin_object();
  j.kv("logins_shed", shed.logins_shed);
  j.kv("busy_retries", shed.busy_retries);
  j.kv("busy_abandoned", shed.busy_abandoned);
  j.kv("queued_um_utilization", queued.um_utilization);
  j.kv("admitted_um_utilization", shed.um_utilization);
  j.end_object();
  j.end_object();
  run.finish_artifact();
  return 0;
}
