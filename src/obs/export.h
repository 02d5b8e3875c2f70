// Exporters for the observability subsystem. All output is byte-stable:
// fixed printf formatting, span/metric iteration in deterministic order —
// two runs of the same seed export identical bytes (asserted by test).
//
//  - spans_to_chrome_trace: Chrome trace_event JSON ("traceEvents" array),
//                           loadable in about:tracing or Perfetto; spans
//                           become complete ("X") slices keyed pid=actor,
//                           span events become instant ("i") markers.
//  - registry_to_prometheus: Prometheus text exposition of a whole
//                           registry — counters/gauges under sanitized
//                           names, families as labelled samples,
//                           histograms as summaries with quantile labels.
#pragma once

#include <string>

#include "obs/registry.h"
#include "obs/trace.h"

namespace p2pdrm::obs {

std::string spans_to_chrome_trace(const Tracer& tracer);

/// Prometheus text exposition format (version 0.0.4). Dots and dashes in
/// metric names become underscores; a registry family "fam{label}" renders
/// as `fam{label="..."}` with the label value escaped; histograms render
/// as summaries (`{quantile="0.5"}`, `_sum`, `_count`). Every family gets
/// one `# HELP` line (carrying the original dotted name, so consumers can
/// map sanitized names back) and one `# TYPE` line before its first
/// sample. Iteration follows the registry's name order, so output is
/// byte-stable.
std::string registry_to_prometheus(const Registry& registry);

/// Prometheus label-value escaping: backslash, double quote, newline
/// (exposed for the exporters' tests).
std::string prometheus_escape_label(const std::string& s);

}  // namespace p2pdrm::obs
