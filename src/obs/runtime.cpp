#include "obs/runtime.h"

namespace p2pdrm::obs {

namespace {

/// Raise a counter to `target` without ever decrementing: repeated exports
/// of a monotonically growing source stay idempotent.
void counter_to(Counter& counter, std::uint64_t target) {
  const std::uint64_t current = counter.value();
  if (target > current) counter.inc(target - current);
}

}  // namespace

void export_loop_stats(Registry& registry, const std::string& prefix,
                       const std::vector<LoopStats>& loops,
                       const LatencyHistogram* sched_latency) {
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopStats& ls = loops[i];
    const std::string label = std::to_string(i);
    counter_to(registry.counter(prefix + ".loop.tasks", label), ls.tasks);
    counter_to(registry.counter(prefix + ".loop.timers_fired", label),
               ls.timers_fired);
    registry.gauge(prefix + ".loop.busy_us", label).set(ls.busy_us);
    registry.gauge(prefix + ".loop.idle_us", label).set(ls.idle_us);
    registry.gauge(prefix + ".loop.ready_peak", label).set_max(ls.ready_peak);
    registry.gauge(prefix + ".loop.timer_peak", label).set_max(ls.timer_peak);
    registry.gauge(prefix + ".loop.utilization_permille", label)
        .set(static_cast<std::int64_t>(ls.utilization() * 1000.0));
  }
  if (sched_latency != nullptr) {
    registry.histogram(prefix + ".sched_latency_us") = *sched_latency;
  }
}

bool metric_name_ok(const std::string& name) {
  std::string base = name;
  const std::size_t brace = base.find('{');
  if (brace != std::string::npos) {
    if (brace == 0 || base.back() != '}') return false;
    const std::string label = base.substr(brace + 1, base.size() - brace - 2);
    if (label.empty()) return false;
    for (const char c : label) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '.' || c == ':';
      if (!ok) return false;
    }
    base.resize(brace);
  }
  if (base.empty() || base.front() == '.' || base.back() == '.') return false;
  bool first_segment = true;
  std::size_t start = 0;
  while (start <= base.size()) {
    const std::size_t dot = base.find('.', start);
    const std::size_t end = dot == std::string::npos ? base.size() : dot;
    if (end == start) return false;  // empty segment ("a..b")
    bool all_digits = true;
    for (std::size_t i = start; i < end; ++i) {
      const char c = base[i];
      if (c < '0' || c > '9') all_digits = false;
      if (first_segment) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        if (!ok) return false;
      } else {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) return false;
      }
    }
    if (all_digits) return false;  // instance index belongs in a label
    if (first_segment && (base[start] < 'a' || base[start] > 'z')) return false;
    first_segment = false;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return true;
}

}  // namespace p2pdrm::obs
