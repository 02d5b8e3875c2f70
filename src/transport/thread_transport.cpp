#include "transport/thread_transport.h"

#include <algorithm>
#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/registry.h"

namespace p2pdrm::transport {

namespace {

std::size_t default_loops() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hw == 0 ? 2 : hw, 8);
}

}  // namespace

ThreadTransport::ThreadTransport() : ThreadTransport(Config{}) {}

ThreadTransport::ThreadTransport(Config config)
    : start_(std::chrono::steady_clock::now()) {
  const std::size_t n = config.loops == 0 ? default_loops() : config.loops;
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<Loop>());
  }
  for (std::size_t i = 0; i < n; ++i) {
    Loop* loop = loops_[i].get();
    loop->thread = std::thread([this, loop, i] { run_loop(*loop, i); });
  }
}

ThreadTransport::~ThreadTransport() { shutdown(); }

util::SimTime ThreadTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

TimerId ThreadTransport::post(std::size_t group, util::SimTime delay, Task task) {
  if (stopping_.load(std::memory_order_acquire)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  Loop& loop = *loops_[group % loops_.size()];
  TimerId id;
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    if (loop.stopping) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    if (delay <= 0) {
      loop.ready.push_back(Ready{std::move(task), now()});
      loop.ready_peak = std::max(loop.ready_peak, loop.ready.size());
    } else {
      id = TimerId{now() + delay, loop.next_seq++};
      loop.timers.emplace(id, std::move(task));
      loop.timer_peak = std::max(loop.timer_peak, loop.timers.size());
    }
  }
  loop.cv.notify_one();
  return id;
}

void ThreadTransport::release(std::size_t group, TimerId id) {
  Loop& loop = *loops_[group % loops_.size()];
  Task task;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    const auto it = loop.timers.find(id);
    if (it == loop.timers.end()) return;
    task = std::move(it->second);
    loop.timers.erase(it);
  }
}

void ThreadTransport::run_loop(Loop& loop, std::size_t index) {
  char label[24];
  std::snprintf(label, sizeof(label), "loop-%zu", index);
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.attach_thread(label);

  std::unique_lock<std::mutex> lk(loop.mu);
  for (;;) {
    // Promote due timers into the ready queue (FIFO by due time, then seq).
    const util::SimTime t = now();
    while (!loop.timers.empty() && loop.timers.begin()->first.when <= t) {
      const auto fired = loop.timers.begin();
      flight.record("loop.timer_fire", index, fired->first.seq);
      loop.ready.push_back(Ready{std::move(fired->second), fired->first.when});
      loop.timers.erase(fired);
      ++loop.timers_fired;
      loop.ready_peak = std::max(loop.ready_peak, loop.ready.size());
    }
    if (!loop.ready.empty()) {
      Ready item = std::move(loop.ready.front());
      loop.ready.pop_front();
      lk.unlock();
      const util::SimTime t0 = now();
      loop.sched_latency.record(std::max<util::SimTime>(0, t0 - item.due));
      item.task();
      item.task = nullptr;  // destroy captures outside the lock
      const util::SimTime t1 = now();
      lk.lock();
      ++loop.executed;
      loop.busy_us += t1 - t0;
      continue;
    }
    if (loop.stopping) {  // ready drained; undue timers are discarded
      flight.record("loop.stop", index, loop.executed);
      return;
    }
    const util::SimTime w0 = now();
    if (loop.timers.empty()) {
      loop.cv.wait(lk);
    } else {
      loop.cv.wait_until(
          lk, start_ + std::chrono::microseconds(loop.timers.begin()->first.when));
    }
    loop.idle_us += now() - w0;
  }
}

void ThreadTransport::run_until(util::SimTime t) {
  // The loops make progress on their own threads; this caller just waits
  // for the monotonic clock to pass t.
  std::this_thread::sleep_until(start_ + std::chrono::microseconds(t));
}

void ThreadTransport::shutdown() {
  std::lock_guard<std::mutex> shutdown_lk(shutdown_mu_);
  stopping_.store(true, std::memory_order_release);
  for (std::unique_ptr<Loop>& loop : loops_) {
    {
      std::lock_guard<std::mutex> lk(loop->mu);
      loop->stopping = true;
    }
    loop->cv.notify_all();
  }
  for (std::unique_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
}

std::uint64_t ThreadTransport::tasks_executed() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    std::lock_guard<std::mutex> lk(loop->mu);
    total += loop->executed;
  }
  return total;
}

std::vector<obs::LoopStats> ThreadTransport::loop_stats() const {
  std::vector<obs::LoopStats> out;
  out.reserve(loops_.size());
  for (const std::unique_ptr<Loop>& loop : loops_) {
    std::lock_guard<std::mutex> lk(loop->mu);
    obs::LoopStats ls;
    ls.tasks = loop->executed;
    ls.timers_fired = loop->timers_fired;
    ls.busy_us = loop->busy_us;
    ls.idle_us = loop->idle_us;
    ls.ready_peak = static_cast<std::int64_t>(loop->ready_peak);
    ls.timer_peak = static_cast<std::int64_t>(loop->timer_peak);
    out.push_back(ls);
  }
  return out;
}

obs::LatencyHistogram ThreadTransport::sched_latency() const {
  obs::LatencyHistogram merged;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    merged.merge(loop->sched_latency);
  }
  return merged;
}

void ThreadTransport::export_into(obs::Registry& registry,
                                  const std::string& prefix) const {
  const obs::LatencyHistogram merged = sched_latency();
  obs::export_loop_stats(registry, prefix, loop_stats(), &merged);
}

}  // namespace p2pdrm::transport
