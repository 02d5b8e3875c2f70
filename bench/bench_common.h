// Shared helpers for the reproduction benches: the paper-scale macro-sim
// configuration, environment-variable scaling, and table printers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/critical_path.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "sim/macro_sim.h"

namespace p2pdrm::bench {

/// Scale factor for the week-long simulations. 1.0 reproduces the paper's
/// scale (7 days, ~25k peak concurrent users, 2 UMs + 4 CMs); smaller values
/// shrink the population for quick runs. Override with P2PDRM_SCALE.
inline double scale_factor() {
  if (const char* env = std::getenv("P2PDRM_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0;
}

/// The paper's measurement setting (§VI): one week, diurnal swing peaking
/// around 25k concurrent users, 2 User Managers, 4 Channel Managers over 2
/// partitions, 200 channels.
inline sim::MacroSimConfig paper_config() {
  sim::MacroSimConfig cfg;
  const double scale = scale_factor();
  cfg.days = 7;
  cfg.peak_concurrent = 25000 * scale;
  cfg.num_channels = 200;
  cfg.user_manager_servers = 2;
  cfg.channel_manager_servers = 4;
  cfg.seed = 20080623;  // the paper's trace week started June 23rd, 2008
  return cfg;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Optional output path: `--flag=path` on the command line wins over the
/// environment variable; empty when neither is set.
inline std::string out_path(int argc, char** argv, const char* flag,
                            const char* env) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, prefix.size(), prefix) == 0) {
      return arg.substr(prefix.size());
    }
  }
  if (const char* v = std::getenv(env)) return v;
  return {};
}

inline void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

/// Round SLOs for the paper-scale macro-sim: generous targets (the paper's
/// curves sit near 0.4-1.5s) with a 6 h sliding window so burn rates and
/// the windowed correlation span a meaningful slice of the diurnal swing.
inline std::vector<obs::SloObjective> macro_slo_objectives() {
  const util::SimTime w = 6 * util::kHour;
  return {
      {"LOGIN1", 2 * util::kSecond, 5 * util::kSecond, w},
      {"LOGIN2", 3 * util::kSecond, 8 * util::kSecond, w},
      {"SWITCH1", 2 * util::kSecond, 5 * util::kSecond, w},
      {"SWITCH2", 3 * util::kSecond, 8 * util::kSecond, w},
      {"JOIN", 5 * util::kSecond, 13 * util::kSecond, w},
  };
}

/// Observability sinks for a macro-sim run, bundled so the benches can
/// declare one object and wire it into MacroSimConfig::obs.
struct MacroObs {
  obs::Tracer tracer;
  obs::TimeSeries timeseries;
  obs::SloMonitor slo{macro_slo_objectives()};

  /// `trace` enables span capture (sampled: every 2000th session plus every
  /// rotation epoch — a full week at paper scale stays bounded).
  void attach(sim::MacroSimConfig& cfg, bool trace) {
    if (trace) {
      cfg.obs.tracer = &tracer;
      cfg.obs.trace_session_every = 2000;
      cfg.obs.trace_rotation_every = 1;
    }
    cfg.obs.timeseries = &timeseries;
    cfg.obs.slo = &slo;
    // Whole-run round histograms and the key-rotation pipeline only — the
    // per-hour and peak/off-peak split histograms would add ~3500 series.
    timeseries.set_scrape_filters(
        {"macro.key.*", "macro.round.LOGIN1", "macro.round.LOGIN2",
         "macro.round.SWITCH1", "macro.round.SWITCH2", "macro.round.JOIN",
         "load.*"});
  }
};

/// Shared tail for the fig benches: SLO/correlation report, trace-driven
/// critical path, and the optional --trace-out / --timeseries-out exports.
inline void print_obs_reports(const MacroObs& obs, bool traced,
                              const std::string& trace_out,
                              const std::string& ts_out) {
  std::printf("\n--- SLO / load-correlation monitor ---\n%s",
              obs.slo.report().c_str());
  if (traced) {
    const analysis::CriticalPathReport cp =
        analysis::analyze_critical_path(obs.tracer);
    std::printf("\n--- critical path (traced sessions) ---\n%s",
                cp.to_table().c_str());
    if (!trace_out.empty()) {
      write_file(trace_out, obs::spans_to_chrome_trace(obs.tracer));
    }
  }
  if (!ts_out.empty()) write_file(ts_out, obs.timeseries.to_csv());
}

inline void print_run_summary(const sim::MacroSimResult& r) {
  std::printf(
      "# sessions=%llu switches=%llu ct-renewals=%llu ut-renewals=%llu "
      "join-retries=%llu peak-concurrent=%.0f um-util=%.4f cm-util=%.4f\n",
      static_cast<unsigned long long>(r.sessions),
      static_cast<unsigned long long>(r.channel_switches),
      static_cast<unsigned long long>(r.ct_renewals),
      static_cast<unsigned long long>(r.ut_renewals),
      static_cast<unsigned long long>(r.join_retries), r.peak_observed_concurrency,
      r.um_utilization, r.cm_utilization);
}

}  // namespace p2pdrm::bench
