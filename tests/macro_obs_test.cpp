// Acceptance tests for the macro-sim observability pipeline (ISSUE PR 3):
// a seeded run must emit complete span trees for all five protocol rounds
// AND a key-rotation epoch, the critical-path decomposition must account
// for every microsecond of round latency, and the SLO report / trace
// export / time-series CSV must be byte-identical across same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/critical_path.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/macro_sim.h"

namespace p2pdrm::sim {
namespace {

constexpr const char* kRounds[5] = {"LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2",
                                    "JOIN"};

std::vector<obs::SloObjective> objectives() {
  std::vector<obs::SloObjective> out;
  for (const char* r : kRounds) {
    out.push_back({r, 2 * util::kSecond, 5 * util::kSecond, 6 * util::kHour});
  }
  return out;
}

struct ObsRun {
  std::string slo_report;
  std::string trace_chrome;
  std::string timeseries_csv;
  std::string breakdown;
};

MacroSimConfig small_config() {
  MacroSimConfig cfg;
  cfg.days = 1;
  cfg.peak_concurrent = 250;
  cfg.seed = 7;
  cfg.reservoir_per_hour = 200;
  cfg.reservoir_cdf = 5000;
  cfg.key_rotation.enabled = true;
  cfg.key_rotation.interval = 10 * util::kMinute;
  return cfg;
}

ObsRun run_observed() {
  MacroSimConfig cfg = small_config();
  obs::Tracer tracer;
  obs::TimeSeries ts;
  obs::SloMonitor slo(objectives());
  ts.set_scrape_filters({"macro.key.*", "macro.round.JOIN", "load.*"});
  cfg.obs.tracer = &tracer;
  cfg.obs.trace_session_every = 40;
  cfg.obs.trace_rotation_every = 8;
  cfg.obs.timeseries = &ts;
  cfg.obs.slo = &slo;
  cfg.obs.scrape_interval = 30 * util::kMinute;
  run_macro_sim(cfg);

  ObsRun out;
  out.slo_report = slo.report();
  out.trace_chrome = obs::spans_to_chrome_trace(tracer);
  out.timeseries_csv = ts.to_csv();
  out.breakdown = analysis::analyze_critical_path(tracer).to_table();
  return out;
}

/// children[parent id] = child spans, built from the flat span list.
std::map<obs::SpanId, std::vector<const obs::Span*>> child_index(
    const obs::Tracer& tracer) {
  std::map<obs::SpanId, std::vector<const obs::Span*>> children;
  for (const obs::Span& span : tracer.spans()) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  return children;
}

TEST(MacroObsTest, AllFiveRoundsAppearAsCompleteSpanTrees) {
  MacroSimConfig cfg = small_config();
  obs::Tracer tracer;
  cfg.obs.tracer = &tracer;
  cfg.obs.trace_session_every = 40;
  cfg.obs.trace_rotation_every = 0;  // rotation trees tested separately
  run_macro_sim(cfg);

  const auto children = child_index(tracer);
  std::map<std::string, int> complete_rounds;
  for (const obs::Span& span : tracer.spans()) {
    if (span.parent != 0 || span.category != "client" || span.open ||
        !span.ok) {
      continue;
    }
    const auto it = children.find(span.id);
    if (it == children.end()) continue;
    bool has_request = false, has_response = false, has_serve = false;
    for (const obs::Span* child : it->second) {
      if (child->name == "hop request") has_request = true;
      if (child->name == "hop response") has_response = true;
      if (child->name.rfind("serve", 0) == 0) has_serve = true;
    }
    if (has_request && has_response && has_serve) ++complete_rounds[span.name];
  }
  for (const char* round : kRounds) {
    EXPECT_GT(complete_rounds[round], 0)
        << round << " has no complete span tree in the trace";
  }
}

TEST(MacroObsTest, KeyRotationEpochFormsFanoutSpanTree) {
  MacroSimConfig cfg = small_config();
  obs::Tracer tracer;
  cfg.obs.tracer = &tracer;
  cfg.obs.trace_rotation_every = 8;
  const MacroSimResult result = run_macro_sim(cfg);

  const auto children = child_index(tracer);
  int rotations_with_deliveries = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name != "KEY_ROTATION") continue;
    EXPECT_EQ(span.category, "server");
    EXPECT_EQ(span.parent, 0u);
    EXPECT_FALSE(span.open);
    const auto it = children.find(span.id);
    ASSERT_NE(it, children.end());
    util::SimTime last_delivery = span.start;
    for (const obs::Span* child : it->second) {
      EXPECT_EQ(child->name, "deliver key");
      EXPECT_EQ(child->category, "p2p");
      EXPECT_GE(child->start, span.start);
      EXPECT_LE(child->end, span.end);
      last_delivery = std::max(last_delivery, child->end);
    }
    // The rotation span covers the fan-out: it closes with the slowest
    // sampled delivery.
    EXPECT_EQ(last_delivery, span.end);
    if (!it->second.empty()) ++rotations_with_deliveries;
  }
  EXPECT_GT(rotations_with_deliveries, 0);

  // The rotation pipeline metrics ride along in the run's registry.
  const obs::Counter* issued =
      result.registry->find_counter("macro.key.rotations_issued");
  const obs::Counter* delivered =
      result.registry->find_counter("macro.key.epochs_delivered");
  const obs::LatencyHistogram* lag =
      result.registry->find_histogram("macro.key.delivery_lag_us");
  ASSERT_NE(issued, nullptr);
  ASSERT_NE(delivered, nullptr);
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(issued->value(), 0u);
  EXPECT_GT(delivered->value(), issued->value());  // many peers per epoch
  EXPECT_EQ(lag->count(), delivered->value());
}

TEST(MacroObsTest, CriticalPathAccountsForEveryRound) {
  MacroSimConfig cfg = small_config();
  obs::Tracer tracer;
  cfg.obs.tracer = &tracer;
  cfg.obs.trace_session_every = 40;
  run_macro_sim(cfg);

  const analysis::CriticalPathReport report =
      analysis::analyze_critical_path(tracer);
  ASSERT_EQ(report.rounds.size(), 5u);
  for (const auto& [name, b] : report.rounds) {
    EXPECT_GT(b.rounds, 0u) << name;
    // Exact accounting: components sum to measured latency, and the
    // residual is a real non-negative client-side share (attribution
    // never double-counts the tree).
    EXPECT_EQ(b.total_us, b.network_us + b.queue_us + b.service_us +
                              b.retrans_us + b.client_us)
        << name;
    EXPECT_GT(b.network_us, 0) << name;
    EXPECT_GT(b.service_us, 0) << name;
    EXPECT_GE(b.client_us, 0) << name;
    EXPECT_GE(b.retrans_us, 0) << name;
  }
  // Only JOIN retries against refusing peers in the macro model.
  EXPECT_EQ(report.rounds.at("LOGIN1").retrans_us, 0);
  EXPECT_GT(report.rounds.at("JOIN").retrans_us, 0);
}

TEST(MacroObsTest, SloMonitorSeesRoundsAndLoadSignal) {
  MacroSimConfig cfg = small_config();
  obs::SloMonitor slo(objectives());
  obs::TimeSeries ts;
  cfg.obs.slo = &slo;
  cfg.obs.timeseries = &ts;
  cfg.obs.scrape_interval = 30 * util::kMinute;
  run_macro_sim(cfg);

  for (const char* round : kRounds) {
    const obs::SloMonitor::RoundStatus s = slo.status(round);
    EXPECT_GT(s.count, 0u) << round;
    EXPECT_GE(s.worst_burn95, 0.0);
  }
  // A day of half-hour buckets is plenty for the whole-run correlation.
  EXPECT_TRUE(slo.status("JOIN").run_r_valid);
  // The load signal the monitor correlates against is also exported.
  ASSERT_NE(ts.series("load.concurrent"), nullptr);
  EXPECT_EQ(ts.series("load.concurrent")->size(), ts.scrapes());
}

TEST(MacroObsTest, SameSeedRunsExportIdenticalBytes) {
  const ObsRun a = run_observed();
  const ObsRun b = run_observed();
  // Not just the empty envelope: at least one span slice was exported.
  EXPECT_NE(a.trace_chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_FALSE(a.timeseries_csv.empty());
  EXPECT_EQ(a.slo_report, b.slo_report);
  EXPECT_EQ(a.trace_chrome, b.trace_chrome);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
  EXPECT_EQ(a.breakdown, b.breakdown);
}

}  // namespace
}  // namespace p2pdrm::sim
