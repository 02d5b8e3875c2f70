#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace p2pdrm::obs {

namespace {

struct ThreadCache {
  const void* owner = nullptr;
  std::uint64_t generation = 0;
  void* ring = nullptr;
};
thread_local ThreadCache tl_flight_cache;

/// Copy into a fixed slot, truncating, replacing every byte that would
/// need JSON escaping (or is non-printable) with '_' — the signal-time
/// dump can then emit the bytes verbatim inside quotes.
void copy_sanitized(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < cap && src[i] != '\0'; ++i) {
      const char c = src[i];
      dst[i] = (c < 0x20 || c > 0x7e || c == '"' || c == '\\') ? '_' : c;
    }
  }
  dst[i] = '\0';
}

constexpr int kFatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};
constexpr std::size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);
struct sigaction g_old_actions[kNumFatalSignals];

const char* signal_name(int sig) {
  switch (sig) {
    case SIGABRT: return "SIGABRT";
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "SIGNAL";
  }
}

void crash_handler(int sig) {
  FlightRecorder::global().dump(signal_name(sig));
  // Restore the default disposition and re-raise so the process dies with
  // the original signal (exit code, core dump) as if we were never here.
  signal(sig, SIG_DFL);
  raise(sig);
}

// --- async-signal-safe formatting into an fd ---------------------------

/// Small write buffer flushed with write(2); every formatter below is
/// loop-and-arithmetic only (no stdio, no malloc, no locale).
struct FdWriter {
  explicit FdWriter(int out_fd) : fd(out_fd) {}

  int fd;
  char buf[512];
  std::size_t len = 0;
  bool ok = true;

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(char c) {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }
  void str(const char* s) {
    for (; *s != '\0'; ++s) put(*s);
  }
  void u64(std::uint64_t v) {
    char tmp[20];
    std::size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n != 0) put(tmp[--n]);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      put('-');
      u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
};

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder instance;
  return instance;
}

FlightRecorder::FlightRecorder() : rings_(new Ring[kMaxThreads]) {}

FlightRecorder::~FlightRecorder() { disarm(); }

void FlightRecorder::arm(const std::string& path) {
  std::size_t n = path.size();
  if (n >= sizeof(path_)) n = sizeof(path_) - 1;
  std::memcpy(path_, path.c_str(), n);
  path_[n] = '\0';
  if (this == &global() && !handlers_installed_) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = crash_handler;
    sigemptyset(&action.sa_mask);
    for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
      sigaction(kFatalSignals[i], &action, &g_old_actions[i]);
    }
    handlers_installed_ = true;
  }
  armed_.store(true, std::memory_order_release);
}

bool FlightRecorder::arm_from_env(const char* env) {
  const char* value = std::getenv(env);
  if (value == nullptr || value[0] == '\0') return false;
  arm(value);
  return true;
}

void FlightRecorder::disarm() {
  armed_.store(false, std::memory_order_release);
  if (handlers_installed_) {
    for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
      sigaction(kFatalSignals[i], &g_old_actions[i], nullptr);
    }
    handlers_installed_ = false;
  }
}

std::uint64_t FlightRecorder::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

FlightRecorder::Ring* FlightRecorder::ring_for_current_thread(
    const char* label) {
  ThreadCache& cache = tl_flight_cache;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (cache.owner == this && cache.generation == gen) {
    return static_cast<Ring*>(cache.ring);
  }
  const std::size_t slot = threads_.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxThreads) {
    threads_.fetch_sub(1, std::memory_order_acq_rel);
    return nullptr;  // recorder full: silently stop covering extra threads
  }
  Ring* ring = &rings_[slot];
  copy_sanitized(ring->label, sizeof(ring->label),
                 label != nullptr && label[0] != '\0' ? label : "anon");
  cache.owner = this;
  cache.generation = gen;
  cache.ring = ring;
  return ring;
}

void FlightRecorder::attach_thread(const char* label) {
  if (!armed()) return;
  Ring* ring = ring_for_current_thread(label);
  if (ring != nullptr) copy_sanitized(ring->label, sizeof(ring->label), label);
}

void FlightRecorder::record(const char* kind, std::uint64_t a, std::uint64_t b,
                            const char* detail) {
  if (!armed()) return;
  Ring* ring = ring_for_current_thread(nullptr);
  if (ring == nullptr) return;
  const std::uint64_t n = ring->count.load(std::memory_order_relaxed);
  Event& e = ring->events[n % kRingCapacity];
  e.t_us = now_us();
  e.seq = n;
  e.a = a;
  e.b = b;
  copy_sanitized(e.kind, sizeof(e.kind), kind);
  copy_sanitized(e.detail, sizeof(e.detail), detail);
  ring->count.store(n + 1, std::memory_order_release);
}

bool FlightRecorder::dump(const char* reason) {
  if (path_[0] == '\0') return false;
  const int fd = ::open(path_, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump_to_fd(fd, reason);
  ::close(fd);
  return ok;
}

bool FlightRecorder::dump_to_fd(int fd, const char* reason) {
  FdWriter w{fd};
  w.str("{\"schema\":\"p2pdrm.flight.v1\",\"reason\":\"");
  // The reason is always one of our own literals, but sanitize anyway.
  char clean_reason[32];
  copy_sanitized(clean_reason, sizeof(clean_reason), reason);
  w.str(clean_reason);
  w.str("\",\"t_us\":");
  w.i64(now_us());
  w.str(",\"threads\":[");
  const std::size_t threads =
      std::min(threads_.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t i = 0; i < threads; ++i) {
    const Ring& ring = rings_[i];
    if (i != 0) w.put(',');
    w.str("\n{\"label\":\"");
    w.str(ring.label);
    const std::uint64_t count = ring.count.load(std::memory_order_acquire);
    const std::uint64_t dropped =
        count > kRingCapacity ? count - kRingCapacity : 0;
    w.str("\",\"recorded\":");
    w.u64(count);
    w.str(",\"dropped\":");
    w.u64(dropped);
    w.str(",\"events\":[");
    for (std::uint64_t seq = dropped; seq < count; ++seq) {
      const Event& e = ring.events[seq % kRingCapacity];
      if (seq != dropped) w.put(',');
      w.str("\n{\"t_us\":");
      w.i64(e.t_us);
      w.str(",\"seq\":");
      w.u64(e.seq);
      w.str(",\"kind\":\"");
      w.str(e.kind);
      w.str("\",\"a\":");
      w.u64(e.a);
      w.str(",\"b\":");
      w.u64(e.b);
      w.str(",\"detail\":\"");
      w.str(e.detail);
      w.str("\"}");
    }
    w.str("]}");
  }
  w.str("\n]}\n");
  w.flush();
  return w.ok;
}

std::vector<FlightRecorder::ThreadView> FlightRecorder::snapshot() const {
  std::vector<ThreadView> out;
  const std::size_t threads =
      std::min(threads_.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t i = 0; i < threads; ++i) {
    const Ring& ring = rings_[i];
    ThreadView view;
    view.label = ring.label;
    view.recorded = ring.count.load(std::memory_order_acquire);
    view.dropped =
        view.recorded > kRingCapacity ? view.recorded - kRingCapacity : 0;
    for (std::uint64_t seq = view.dropped; seq < view.recorded; ++seq) {
      const Event& e = ring.events[seq % kRingCapacity];
      EventView ev;
      ev.t_us = e.t_us;
      ev.seq = e.seq;
      ev.a = e.a;
      ev.b = e.b;
      ev.kind = e.kind;
      ev.detail = e.detail;
      view.events.push_back(std::move(ev));
    }
    out.push_back(std::move(view));
  }
  return out;
}

void FlightRecorder::reset() {
  disarm();
  const std::size_t threads =
      std::min(threads_.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t i = 0; i < threads; ++i) {
    rings_[i].count.store(0, std::memory_order_relaxed);
    rings_[i].label[0] = '\0';
  }
  threads_.store(0, std::memory_order_release);
  generation_.store(next_generation(), std::memory_order_release);
  path_[0] = '\0';
}

}  // namespace p2pdrm::obs
