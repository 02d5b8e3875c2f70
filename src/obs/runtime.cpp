#include "obs/runtime.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>

#include "obs/export.h"
#include "obs/trace.h"

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

// ---------------------------------------------------------------------------
// Profiler

namespace {

struct ThreadCache {
  const void* owner = nullptr;
  std::uint64_t generation = 0;
  void* log = nullptr;
};
thread_local ThreadCache tl_profiler_cache;

}  // namespace

std::uint64_t Profiler::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

std::string Profiler::enable_global_from_env(const char* env) {
  const char* value = std::getenv(env);
  if (value == nullptr || value[0] == '\0') return {};
  global().enable();
  return value;
}

Profiler::ThreadLog* Profiler::log_for_current_thread(
    const char* fallback_label) {
  ThreadCache& cache = tl_profiler_cache;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (cache.owner == this && cache.generation == gen) {
    return static_cast<ThreadLog*>(cache.log);
  }
  std::lock_guard<std::mutex> lk(mu_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog* log = logs_.back().get();
  log->label = fallback_label != nullptr && fallback_label[0] != '\0'
                   ? fallback_label
                   : "thread-" + std::to_string(logs_.size() - 1);
  cache.owner = this;
  cache.generation = gen;
  cache.log = log;
  return log;
}

void Profiler::attach_thread(const std::string& label) {
  if (!enabled()) return;
  ThreadLog* log = log_for_current_thread(label.c_str());
  log->label = label;
}

void Profiler::begin(const char* name) {
  if (!enabled()) return;
  ThreadLog* log = log_for_current_thread(nullptr);
  if (log->events.size() >= kMaxEventsPerThread) {
    ++log->dropped;
    return;
  }
  log->events.push_back(Event{name, now_us(), true});
}

void Profiler::end(const char* name) {
  if (!enabled()) return;
  ThreadLog* log = log_for_current_thread(nullptr);
  if (log->events.size() >= kMaxEventsPerThread) {
    ++log->dropped;
    return;
  }
  log->events.push_back(Event{name, now_us(), false});
}

namespace {

struct Frame {
  const char* name;
  std::int64_t start;
  std::int64_t child_time;
};

/// Replay one thread's begin/end events as a call stack and call
/// `on_close(open, frame, dur)` for each frame as it closes: `open` holds
/// the frames still open around it (outermost first), `dur` is its wall
/// time clamped at 0. A mismatched end unwinds to the matching open frame,
/// closing everything above it, and is dropped when no such frame is open;
/// frames still open at the end close at the last event's timestamp.
template <typename Events, typename OnClose>
void walk_frames(const Events& events, OnClose on_close) {
  std::vector<Frame> stack;
  std::int64_t last_t = 0;
  const auto close_frame = [&](std::int64_t at) {
    const Frame f = stack.back();
    stack.pop_back();
    const std::int64_t dur = std::max<std::int64_t>(0, at - f.start);
    on_close(stack, f, dur);
    if (!stack.empty()) stack.back().child_time += dur;
  };
  for (const auto& ev : events) {
    last_t = ev.t_us;
    if (ev.begin) {
      stack.push_back(Frame{ev.name, ev.t_us, 0});
      continue;
    }
    bool open = false;
    for (const Frame& f : stack) {
      if (std::string_view(f.name) == ev.name) open = true;
    }
    if (!open) continue;
    while (!stack.empty()) {
      const bool match = std::string_view(stack.back().name) == ev.name;
      close_frame(ev.t_us);
      if (match) break;
    }
  }
  while (!stack.empty()) close_frame(last_t);
}

}  // namespace

std::string Profiler::collapsed() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, std::int64_t> agg;
  for (const std::unique_ptr<ThreadLog>& log : logs_) {
    walk_frames(log->events, [&](const std::vector<Frame>& open, const Frame& f,
                                 std::int64_t dur) {
      std::string key = log->label;
      for (const Frame& outer : open) {
        key += ';';
        key += outer.name;
      }
      key += ';';
      key += f.name;
      agg[key] += std::max<std::int64_t>(0, dur - f.child_time);
    });
  }
  std::string out;
  char line[64];
  for (const auto& [key, self_us] : agg) {
    out += key;
    std::snprintf(line, sizeof(line), " %" PRId64 "\n", self_us);
    out += line;
  }
  return out;
}

std::string Profiler::chrome_trace_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[192];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  for (std::size_t tid = 0; tid < logs_.size(); ++tid) {
    const ThreadLog& log = *logs_[tid];
    if (!out.empty()) out += ",\n";
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu64
         ",\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
         kChromePid, tid, json_escape(log.label).c_str());
    walk_frames(log.events, [&](const std::vector<Frame>&, const Frame& f,
                                std::int64_t dur) {
      out += ",\n";
      emit("{\"name\":\"%s\",\"cat\":\"profile\",\"ph\":\"X\",\"ts\":%" PRId64
           ",\"dur\":%" PRId64 ",\"pid\":%" PRIu64 ",\"tid\":%zu}",
           json_escape(f.name).c_str(), f.start, dur, kChromePid, tid);
    });
  }
  return out;
}

std::string Profiler::chrome_trace() const {
  std::string out = "{\"traceEvents\":[\n";
  out += chrome_trace_events();
  out += "\n]}\n";
  return out;
}

std::uint64_t Profiler::recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<ThreadLog>& log : logs_) {
    total += log->events.size();
  }
  return total;
}

std::uint64_t Profiler::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<ThreadLog>& log : logs_) total += log->dropped;
  return total;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  logs_.clear();
  generation_.store(next_generation(), std::memory_order_release);
}

std::string merged_chrome_trace(const Tracer& tracer,
                                const Profiler& profiler) {
  // spans_to_chrome_trace always ends with "\n]}\n"; splice the profiler's
  // slices in front of the closing bracket (format pinned by obs tests).
  std::string out = spans_to_chrome_trace(tracer);
  const std::string frag = profiler.chrome_trace_events();
  if (frag.empty()) return out;
  const std::size_t tail = out.rfind("\n]}");
  if (tail == std::string::npos) return out;
  const bool has_spans = out.find("{\"name\"") < tail;
  std::string insert;
  if (has_spans) insert += ",";
  insert += "\n";
  insert += frag;
  out.insert(tail, insert);
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return written == content.size();
}

}  // namespace p2pdrm::obs
