#include "obs/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/json_writer.h"

namespace p2pdrm::obs {
namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

}  // namespace

std::string spans_to_chrome_trace(const Tracer& tracer) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : tracer.spans()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":";
    append_json_string(out, span.name);
    out += ",\"cat\":";
    append_json_string(out, span.category);
    append_fmt(out,
               ",\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
               ",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64 ",\"args\":{",
               span.start, span.end - span.start, span.actor, span.actor);
    append_fmt(out, "\"span\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"ok\":%s",
               span.id, span.parent, span.ok ? "true" : "false");
    for (const auto& [key, value] : span.tags) {
      out += ",";
      append_json_string(out, key);
      out += ":";
      append_json_string(out, value);
    }
    out += "}}";
    for (const SpanEvent& ev : span.events) {
      out += ",\n{\"name\":";
      append_json_string(out, ev.name);
      out += ",\"cat\":";
      append_json_string(out, span.category);
      append_fmt(out,
                 ",\"ph\":\"i\",\"ts\":%" PRId64 ",\"pid\":%" PRIu64
                 ",\"tid\":%" PRIu64 ",\"s\":\"t\",\"args\":{\"detail\":",
                 ev.at, span.actor, span.actor);
      append_json_string(out, ev.detail);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Everything else
/// (dots, dashes, braces) becomes '_'.
std::string prom_name(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

/// Split a registry name "family{label}" into its parts; plain names keep
/// an empty label.
void split_family(const std::string& name, std::string* metric,
                  std::string* label) {
  const std::size_t brace = name.find('{');
  if (brace != std::string::npos && name.back() == '}') {
    *metric = name.substr(0, brace);
    *label = name.substr(brace + 1, name.size() - brace - 2);
  } else {
    *metric = name;
    label->clear();
  }
}

/// One HELP + TYPE pair per family, emitted before its first sample. HELP
/// carries the registry's original dotted name, so a scrape consumer can
/// map the sanitized Prometheus name back to the source metric.
void append_type_line(std::string& out, const std::string& metric,
                      const std::string& original, const char* type,
                      std::string* last_typed) {
  if (metric == *last_typed) return;
  *last_typed = metric;
  out += "# HELP ";
  out += metric;
  out += ' ';
  out += original;
  out += '\n';
  out += "# TYPE ";
  out += metric;
  out += ' ';
  out += type;
  out += '\n';
}

void append_sample(std::string& out, const std::string& metric,
                   const std::string& label_key, const std::string& label_value,
                   const char* value) {
  out += metric;
  if (!label_key.empty()) {
    out += '{';
    out += label_key;
    out += "=\"";
    out += prometheus_escape_label(label_value);
    out += "\"}";
  }
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string prometheus_escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string registry_to_prometheus(const Registry& registry) {
  std::string out;
  char value[64];
  std::string metric, label, last_typed;
  for (const auto& [name, counter] : registry.counters()) {
    split_family(name, &metric, &label);
    const std::string original = metric;
    metric = prom_name(metric);
    append_type_line(out, metric, original, "counter", &last_typed);
    std::snprintf(value, sizeof(value), "%" PRIu64, counter.value());
    append_sample(out, metric, label.empty() ? "" : "label", label, value);
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    split_family(name, &metric, &label);
    const std::string original = metric;
    metric = prom_name(metric);
    append_type_line(out, metric, original, "gauge", &last_typed);
    std::snprintf(value, sizeof(value), "%" PRId64, gauge.value());
    append_sample(out, metric, label.empty() ? "" : "label", label, value);
  }
  for (const auto& [name, h] : registry.histograms()) {
    metric = prom_name(name);
    append_type_line(out, metric, name, "summary", &last_typed);
    const double quantiles[3] = {h.p50(), h.p95(), h.p99()};
    const char* q_labels[3] = {"0.5", "0.95", "0.99"};
    for (int i = 0; i < 3; ++i) {
      std::snprintf(value, sizeof(value), "%.3f", quantiles[i]);
      append_sample(out, metric, "quantile", q_labels[i], value);
    }
    std::snprintf(value, sizeof(value), "%.3f", h.sum());
    append_sample(out, metric + "_sum", "", "", value);
    std::snprintf(value, sizeof(value), "%" PRIu64, h.count());
    append_sample(out, metric + "_count", "", "", value);
  }
  return out;
}

}  // namespace p2pdrm::obs
