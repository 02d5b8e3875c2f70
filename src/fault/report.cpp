#include "fault/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

namespace p2pdrm::fault {

namespace {

/// Fixed-precision seconds ("1.234s") — printf keeps the rendering
/// byte-identical across runs, which ostream double formatting would not
/// guarantee for report diffing.
std::string secs(util::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", util::to_seconds(t));
  return buf;
}

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100.0);
  return buf;
}

/// "ok=120 access-denied=3" style rendering of (key, count) pairs in the
/// given order, zero counts omitted; "(no requests)" when all are zero.
std::string render_counts(
    const std::vector<std::pair<std::string_view, std::uint64_t>>& fields) {
  std::string out;
  for (const auto& [key, n] : fields) {
    if (n == 0) continue;
    if (!out.empty()) out += " ";
    out += std::string(key) + "=" + std::to_string(n);
  }
  return out.empty() ? "(no requests)" : out;
}

/// Outcome counts in core::DrmError enum order.
std::string render_outcomes(const OutcomeCounts& counts) {
  std::vector<std::pair<std::string_view, std::uint64_t>> fields;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    fields.emplace_back(core::to_string(static_cast<core::DrmError>(i)), counts[i]);
  }
  return render_counts(fields);
}

/// Add the "server.outcome" counts of request kind `kind` into `counts`.
void add_outcomes(const obs::Registry& registry, net::MsgKind kind,
                  OutcomeCounts& counts) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const obs::Counter* c = registry.find_counter(
        net::outcome_metric(kind, core::to_string(static_cast<core::DrmError>(i))));
    if (c != nullptr) counts[i] += c->value();
  }
}

}  // namespace

util::SimTime ResilienceReport::rejoin_percentile(double p) const {
  if (rejoin_latencies.empty()) return 0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const std::size_t n = rejoin_latencies.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return rejoin_latencies[std::min(rank, n) - 1];
}

ResilienceReport ResilienceReport::collect(const net::Deployment& deployment) {
  ResilienceReport report;
  const util::SimTime now = deployment.now();
  for (const auto& client : deployment.clients()) {
    ++report.clients_total;
    if (client->departed()) {
      ++report.clients_departed;
    } else {
      if (client->logged_in()) ++report.clients_logged_in;
      if (client->channel_ticket()) {
        ++report.clients_joined;
        if (!client->channel_ticket()->ticket.expired_at(now)) {
          ++report.clients_current;
        }
      }
    }
    for (const core::LatencySample& sample : client->feedback_log()) {
      RoundStats& stats = report.round(sample.round);
      ++stats.attempts;
      if (sample.success) ++stats.successes;
    }
    report.retransmits += client->retransmits();
    report.timeout_exhaustions += client->timeout_exhaustions();
    report.failovers += client->failovers();
    report.relogins += client->relogins();
    report.rejoins += client->rejoins();
    report.rejoin_latencies.insert(report.rejoin_latencies.end(),
                                   client->rejoin_latencies().begin(),
                                   client->rejoin_latencies().end());
  }
  std::sort(report.rejoin_latencies.begin(), report.rejoin_latencies.end());

  const obs::Registry& registry = deployment.registry();
  add_outcomes(registry, net::MsgKind::kLogin1Request, report.login_ops);
  add_outcomes(registry, net::MsgKind::kLogin2Request, report.login_ops);
  add_outcomes(registry, net::MsgKind::kSwitch1Request, report.switch_ops);
  add_outcomes(registry, net::MsgKind::kSwitch2Request, report.switch_ops);
  if (const obs::Counter* c = registry.find_counter("keys.rotations_issued")) {
    report.rotations_issued = c->value();
  }
  if (const obs::Counter* c = registry.find_counter("keys.epochs_delivered")) {
    report.epochs_delivered = c->value();
  }
  if (const obs::Gauge* g = registry.find_gauge("keys.max_staleness_us")) {
    report.max_key_staleness_us = g->value();
  }
  return report;
}

std::string ResilienceReport::to_string() const {
  std::ostringstream out;
  out << "=== resilience report ===\n";
  out << "clients: total=" << clients_total << " departed=" << clients_departed
      << " logged-in=" << clients_logged_in << " joined=" << clients_joined
      << " current=" << clients_current << "\n";
  out << "rounds:\n";
  for (const core::Round r : core::kAllRounds) {
    const RoundStats& stats = round(r);
    char line[128];
    std::snprintf(line, sizeof(line), "  %-8s attempts=%-6llu ok=%-6llu availability=",
                  std::string(core::to_string(r)).c_str(),
                  static_cast<unsigned long long>(stats.attempts),
                  static_cast<unsigned long long>(stats.successes));
    out << line << pct(stats.availability()) << "\n";
  }
  out << "recovery: retransmits=" << retransmits
      << " timeout-exhaustions=" << timeout_exhaustions << " failovers=" << failovers
      << " relogins=" << relogins << " rejoins=" << rejoins << "\n";
  out << "rejoin latency: n=" << rejoin_latencies.size();
  if (!rejoin_latencies.empty()) {
    out << " p50=" << secs(rejoin_p50()) << " p99=" << secs(rejoin_p99())
        << " max=" << secs(rejoin_latencies.back());
  }
  out << "\n";
  const std::string keys = render_counts(
      {{"rotations-issued", rotations_issued},
       {"epochs-delivered", epochs_delivered},
       {"max-key-staleness-us",
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, max_key_staleness_us))}});
  out << "manager ops: login[" << render_outcomes(login_ops) << "] switch["
      << render_outcomes(switch_ops) << "] keys[" << keys << "]\n";
  return out.str();
}

}  // namespace p2pdrm::fault
