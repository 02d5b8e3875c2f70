#include "fault/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

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

  report.login_ops.merge(deployment.um_domain().login1_stats);
  report.login_ops.merge(deployment.um_domain().login2_stats);
  for (std::size_t p = 0; p < deployment.partition_count(); ++p) {
    const auto& partition = deployment.cm_partition(static_cast<std::uint32_t>(p));
    report.switch_ops.merge(partition.switch1_stats);
    report.switch_ops.merge(partition.switch2_stats);
    report.key_ops.merge(partition.key_stats);
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
  out << "manager ops: login[" << login_ops.to_string() << "] switch["
      << switch_ops.to_string() << "] keys[" << key_ops.to_string() << "]\n";
  return out.str();
}

}  // namespace p2pdrm::fault
