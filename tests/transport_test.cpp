// The transport seam: ThreadTransport semantics (timer ordering, FIFO
// confinement, graceful shutdown), SimTransport delegation, cross-backend
// protocol equivalence, shutdown-under-load, the interceptor add/remove
// race, a relay's fan-out of one shared content buffer, and
// concurrent-senders stress on the shared observability structures. The
// stress tests are the TSan targets for the thread-safety contract
// (DESIGN.md §10) — run them under P2PDRM_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/critical_path.h"
#include "net/deployment.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/runtime.h"
#include "obs/trace.h"
#include "relay_tree.h"
#include "transport/sim_transport.h"
#include "transport/thread_transport.h"

namespace p2pdrm {
namespace {

using util::kMillisecond;
using util::kSecond;

/// Poll `pred` every millisecond until true or `budget` wall time elapses.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget =
                               std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ThreadTransportTest, TimersFireInDueOrder) {
  transport::ThreadTransport tt({1});
  // Written only by the single loop thread, read after the join.
  std::vector<int> order;
  tt.post(0, 30 * kMillisecond, [&] { order.push_back(30); });
  tt.post(0, 10 * kMillisecond, [&] { order.push_back(10); });
  tt.post(0, 20 * kMillisecond, [&] { order.push_back(20); });
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == 3; }));
  tt.shutdown();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(ThreadTransportTest, EqualDueTimesRunInPostOrder) {
  transport::ThreadTransport tt({1});
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    tt.post(0, 5 * kMillisecond, [&order, i] { order.push_back(i); });
  }
  for (int i = 50; i < 100; ++i) {
    tt.post(0, 0, [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == 100; }));
  tt.shutdown();
  ASSERT_EQ(order.size(), 100u);
  // Immediate tasks (posted second) run first; each batch keeps FIFO order.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], 50 + i);
  for (int i = 50; i < 100; ++i) EXPECT_EQ(order[i], i - 50);
}

TEST(ThreadTransportTest, PostAfterShutdownIsDroppedNotRun) {
  transport::ThreadTransport tt({2});
  std::atomic<bool> ran{false};
  tt.post(0, 0, [&] { ran = true; });
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == 1; }));
  tt.shutdown();
  const std::uint64_t executed = tt.tasks_executed();
  tt.post(1, 0, [&] { ran = false; });
  EXPECT_EQ(tt.tasks_dropped(), 1u);
  EXPECT_EQ(tt.tasks_executed(), executed);
  EXPECT_TRUE(ran.load());
}

TEST(ThreadTransportTest, ShutdownDiscardsUndueTimersPromptly) {
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<bool> fired{false};
  {
    transport::ThreadTransport tt({2});
    tt.post(0, 30 * kSecond, [&] { fired = true; });
    tt.post(1, 30 * kSecond, [&] { fired = true; });
    tt.shutdown();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
  EXPECT_FALSE(fired.load());
}

TEST(ThreadTransportTest, RunUntilAdvancesTheMonotonicClock) {
  transport::ThreadTransport tt({1});
  tt.run_until(20 * kMillisecond);
  EXPECT_GE(tt.now(), 20 * kMillisecond);
  EXPECT_TRUE(tt.live());
  tt.shutdown();
}

TEST(ThreadTransportTest, ConcurrentPostersAllGroupsAllExecute) {
  transport::ThreadTransport tt({4});
  ASSERT_EQ(tt.groups(), 4u);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&tt, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tt.post(static_cast<std::size_t>(t + i) % 4,
                (i % 3) * kMillisecond, [] {});
      }
    });
  }
  for (std::thread& t : posters) t.join();
  ASSERT_TRUE(
      eventually([&] { return tt.tasks_executed() == kThreads * kPerThread; }));
  tt.shutdown();
  EXPECT_EQ(tt.tasks_executed(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(tt.tasks_dropped(), 0u);
}

TEST(ThreadTransportTest, TelemetryUnderSustainedLoad) {
  transport::ThreadTransport tt({2});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&tt, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Mix immediate tasks with short timers so both queues see depth.
        tt.post(static_cast<std::size_t>(t + i) % 2, (i % 4) * kMillisecond,
                [] {});
      }
    });
  }
  for (std::thread& t : posters) t.join();
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == kTotal; }));
  tt.shutdown();

  const std::vector<obs::LoopStats> stats = tt.loop_stats();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t tasks = 0, timers = 0;
  std::int64_t ready_peak = 0, timer_peak = 0;
  for (const obs::LoopStats& ls : stats) {
    tasks += ls.tasks;
    timers += ls.timers_fired;
    ready_peak = std::max(ready_peak, ls.ready_peak);
    timer_peak = std::max(timer_peak, ls.timer_peak);
    // Both loops ran: they accumulated wall time and a utilization in
    // [0, 1].
    EXPECT_GT(ls.busy_us + ls.idle_us, 0);
    EXPECT_GE(ls.utilization(), 0.0);
    EXPECT_LE(ls.utilization(), 1.0);
  }
  EXPECT_EQ(tasks, kTotal);
  // 3 of every 4 posts were timers; every one of them was promoted.
  EXPECT_EQ(timers, kTotal / 4 * 3);
  EXPECT_GE(ready_peak, 1);
  EXPECT_GE(timer_peak, 1);

  // No lost samples: exactly one scheduling-latency record per executed
  // task, none from the discarded ones, and monotone percentiles.
  const obs::LatencyHistogram sched = tt.sched_latency();
  EXPECT_EQ(sched.count(), tt.tasks_executed());
  EXPECT_LE(sched.p50(), sched.p95());
  EXPECT_LE(sched.p95(), sched.p99());
}

TEST(ThreadTransportTest, TimerHeapHighWaterTracksPending) {
  transport::ThreadTransport tt({1});
  constexpr int kTimers = 20;
  // A wide undue window: all 20 posts (microseconds of work, even under
  // TSan) land in the timer map before the first timer comes due.
  for (int i = 0; i < kTimers; ++i) {
    tt.post(0, 250 * kMillisecond, [] {});
  }
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == kTimers; }));
  tt.shutdown();
  const std::vector<obs::LoopStats> stats = tt.loop_stats();
  ASSERT_EQ(stats.size(), 1u);
  // All were posted before any came due, so the map held every one.
  EXPECT_EQ(stats[0].timer_peak, kTimers);
  EXPECT_EQ(stats[0].timers_fired, static_cast<std::uint64_t>(kTimers));
}

TEST(ThreadTransportTest, BusyTimeCoversTheTaskOnItsOwnLoop) {
  // busy_us is the one per-task wall timer on the live loops: a task that
  // spins for 20 ms is charged in full to the loop that ran it, and to no
  // other.
  transport::ThreadTransport tt({3});
  constexpr auto kSpin = std::chrono::milliseconds(20);
  tt.post(1, 0, [kSpin] {
    const auto until = std::chrono::steady_clock::now() + kSpin;
    while (std::chrono::steady_clock::now() < until) {
    }
  });
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == 1; }));
  tt.shutdown();
  const std::vector<obs::LoopStats> stats = tt.loop_stats();
  ASSERT_EQ(stats.size(), 3u);
  constexpr std::int64_t kSpinUs = 20'000;
  EXPECT_GE(stats[1].busy_us, kSpinUs);
  EXPECT_LT(stats[0].busy_us, kSpinUs);
  EXPECT_LT(stats[2].busy_us, kSpinUs);
}

TEST(ThreadTransportTest, ReleasedTimerNeverRunsAndFreesItsCaptures) {
  transport::ThreadTransport tt({1});
  std::vector<int> order;
  const auto capture = std::make_shared<int>(0);
  // A wide undue window, as above: the releases land long before it ends.
  tt.post(0, 250 * kMillisecond, [&] { order.push_back(1); });
  const transport::TimerId dropped =
      tt.post(0, 250 * kMillisecond, [&order, capture] { order.push_back(2); });
  tt.post(0, 250 * kMillisecond, [&] { order.push_back(3); });
  EXPECT_NE(dropped, transport::TimerId{});
  EXPECT_EQ(tt.post(0, 0, [] {}), transport::TimerId{});  // not a timer
  EXPECT_EQ(capture.use_count(), 2);
  tt.release(0, dropped);
  EXPECT_EQ(capture.use_count(), 1);  // destroyed at release, not when due
  tt.release(0, dropped);             // twice, and a default id: ignored
  tt.release(0, transport::TimerId{});
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == 3; }));
  tt.shutdown();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(tt.loop_stats()[0].timers_fired, 2u);
}

TEST(ThreadTransportTest, ShutdownDrainsDueTasksIntoTheHistogram) {
  transport::ThreadTransport tt({1});
  std::atomic<int> ran{0};
  tt.post(0, 0, [&] {
    ran.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  // Posted while the loop is busy: already due by shutdown, so it must be
  // drained (run), and its latency sample must not be lost.
  tt.post(0, 0, [&] { ran.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  tt.shutdown();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(tt.tasks_executed(), 2u);
  EXPECT_EQ(tt.sched_latency().count(), 2u);
}

TEST(ThreadTransportTest, ExportIntoRegistryIsScrapeSafe) {
  transport::ThreadTransport tt({2});
  for (int i = 0; i < 10; ++i) tt.post(i % 2, 0, [] {});
  ASSERT_TRUE(eventually([&] { return tt.tasks_executed() == 10; }));
  tt.shutdown();

  obs::Registry reg;
  tt.export_into(reg);
  tt.export_into(reg);  // a second scrape must not double-count

  const obs::Counter* t0 = reg.find_counter("transport.loop.tasks{0}");
  const obs::Counter* t1 = reg.find_counter("transport.loop.tasks{1}");
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t0->value() + t1->value(), 10u);
  const obs::LatencyHistogram* sched =
      reg.find_histogram("transport.sched_latency_us");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->count(), 10u);
  for (const auto& [name, c] : reg.counters()) {
    EXPECT_TRUE(obs::metric_name_ok(name)) << name;
  }
  for (const auto& [name, g] : reg.gauges()) {
    EXPECT_TRUE(obs::metric_name_ok(name)) << name;
  }
}

TEST(SimTransportTest, DelegatesToTheSimulation) {
  sim::Simulation sim;
  transport::SimTransport st(sim);
  EXPECT_FALSE(st.live());
  EXPECT_EQ(st.groups(), 1u);
  int fired = 0;
  st.post(0, 5 * kSecond, [&] { fired += 1; });
  st.post(7, 2 * kSecond, [&] { fired += 10; });  // group index is ignored
  // The sim keeps released timers, so the event schedule never changes.
  st.release(0, st.post(0, 3 * kSecond, [&] { fired += 100; }));
  st.run_until(10 * kSecond);
  EXPECT_EQ(fired, 111);
  EXPECT_EQ(st.now(), sim.now());
  EXPECT_GE(st.now(), 5 * kSecond);
}

net::DeploymentConfig two_node_config(net::TransportKind kind) {
  net::DeploymentConfig cfg;
  cfg.seed = 7;
  cfg.transport = kind;
  cfg.transport_threads = 4;
  cfg.default_link.latency.floor = 1 * kMillisecond;
  cfg.default_link.latency.median = 3 * kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  return cfg;
}

/// The full five-round protocol (LOGIN1/LOGIN2/SWITCH1/SWITCH2/JOIN) must
/// complete on either backend through the identical protocol code, driven
/// by the one blocking entry point, Deployment::run_op.
void run_five_rounds(net::TransportKind kind) {
  net::Deployment d(two_node_config(kind));
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "equiv", region);
  d.start_channel_server(1);
  d.add_user("e@example.com", "pw");
  net::AsyncClient& c = d.add_client("e@example.com", "pw", region);

  const std::optional<core::DrmError> result =
      d.run_op(c, net::login_and_switch(c, 1), 2 * util::kMinute);
  d.transport().shutdown();  // quiesce before reading loop-confined state

  EXPECT_EQ(result, core::DrmError::kOk);
  EXPECT_TRUE(c.logged_in());
  ASSERT_TRUE(c.channel_ticket().has_value());
  EXPECT_EQ(c.channel_ticket()->ticket.channel_id, 1u);
  bool seen[5] = {};
  for (const core::LatencySample& s : c.feedback_log()) {
    EXPECT_TRUE(s.success);
    seen[static_cast<std::size_t>(s.round)] = true;
  }
  for (int r = 0; r < 5; ++r) {
    EXPECT_TRUE(seen[r]) << "round " << r << " missing from the feedback log";
  }
}

TEST(CrossBackendTest, FiveRoundProtocolCompletesOnSim) {
  run_five_rounds(net::TransportKind::kSim);
}

TEST(CrossBackendTest, FiveRoundProtocolCompletesOnThread) {
  run_five_rounds(net::TransportKind::kThread);
}

/// An op against a backend that never answers: run_op must give up at its
/// deadline with nullopt — neither hang nor invent a result — while the
/// client's own retry ladder (3 s timeout, 4 retries) is still running.
void run_op_times_out(net::TransportKind kind) {
  net::Deployment d(two_node_config(kind));
  d.add_user("e@example.com", "pw");
  net::AsyncClient& c = d.add_client("e@example.com", "pw", d.geo().region_at(0));
  d.network().detach(net::Deployment::kRedirectionNode);

  const util::SimTime before = d.now();
  const std::optional<core::DrmError> result =
      d.run_op(c, [&c](auto done) { c.login(std::move(done)); }, 500 * kMillisecond);
  EXPECT_FALSE(result.has_value());
  EXPECT_GE(d.now() - before, 500 * kMillisecond);
  d.transport().shutdown();
  EXPECT_FALSE(c.logged_in());
}

TEST(CrossBackendTest, RunOpReturnsNulloptAtDeadlineOnSim) {
  run_op_times_out(net::TransportKind::kSim);
}

TEST(CrossBackendTest, RunOpReturnsNulloptAtDeadlineOnThread) {
  run_op_times_out(net::TransportKind::kThread);
}

/// On the live backend a serve span covers the handler's real run time, so
/// the critical-path split credits LOGIN2's RSA signing to the server's
/// service component instead of the client residual (processing delay is
/// zero here, so the span length is the handler alone).
TEST(CrossBackendTest, LiveServeSpansCoverHandlerTime) {
  net::DeploymentConfig cfg = two_node_config(net::TransportKind::kThread);
  cfg.tracing = true;
  net::Deployment d(cfg);
  d.add_user("e@example.com", "pw");
  net::AsyncClient& c = d.add_client("e@example.com", "pw", d.geo().region_at(0));
  const std::optional<core::DrmError> result =
      d.run_op(c, [&c](auto done) { c.login(std::move(done)); }, 2 * util::kMinute);
  d.transport().shutdown();  // quiesce before reading the tracer
  ASSERT_EQ(result, core::DrmError::kOk);

  const analysis::CriticalPathReport report =
      analysis::analyze_critical_path(d.tracer());
  ASSERT_TRUE(report.rounds.contains("LOGIN2"));
  EXPECT_GT(report.rounds.at("LOGIN2").service_us, 0);
}

TEST(CrossBackendTest, ShutdownJoinsCleanlyUnderProtocolLoad) {
  net::DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = 4;
  cfg.default_link.latency.floor = 1 * kMillisecond;
  cfg.default_link.latency.median = 3 * kMillisecond;
  cfg.root_peer_capacity = 32;
  net::Deployment d(cfg);
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "load", region);
  d.start_channel_server(1);
  for (int i = 0; i < 12; ++i) {
    const std::string email = "u" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    net::AsyncClient& c = d.add_client(email, "pw", region);
    net::AsyncClient* cp = &c;
    d.network().post(c.config().node, 0, [cp] {
      cp->login([cp](core::DrmError err) {
        if (err == core::DrmError::kOk) {
          cp->switch_channel(1, [](core::DrmError) {});
        }
      });
    });
  }
  // Shut down mid-flight: loops must finish their queued tasks, drop the
  // rest like lost packets, and join without deadlock or use-after-free.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  d.transport().shutdown();
  SUCCEED();
}

/// Counts every packet it sees; installed and removed mid-traffic.
class CountingInterceptor final : public net::SendInterceptor {
 public:
  Verdict on_send(const net::SendContext&) override {
    seen.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  std::atomic<std::uint64_t> seen{0};
};

class SinkNode final : public net::Node {
 public:
  void on_packet(const net::Packet&) override {
    received.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> received{0};
};

TEST(InterceptorRaceTest, AddRemoveDuringConcurrentSends) {
  transport::ThreadTransport tt({2});
  net::Network net(tt, net::LinkConfig{}, crypto::SecureRandom(1));
  SinkNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);

  CountingInterceptor probe;
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      net.add_interceptor(&probe);
      net.remove_interceptor(&probe);
    }
  });
  constexpr int kSends = 4000;
  std::thread sender2([&] {
    for (int i = 0; i < kSends; ++i) net.send(2, 1, util::bytes_of("pong"));
  });
  for (int i = 0; i < kSends; ++i) net.send(1, 2, util::bytes_of("ping"));
  sender2.join();
  stop = true;
  toggler.join();
  ASSERT_TRUE(eventually(
      [&] { return a.received.load() + b.received.load() == 2 * kSends; }));
  tt.shutdown();
  // Every send either saw the empty chain or the probe — never a torn one
  // (the chain is copy-on-write); the counts just have to be consistent.
  EXPECT_EQ(net.packets_sent(), static_cast<std::uint64_t>(2 * kSends));
  EXPECT_EQ(net.packets_delivered(), static_cast<std::uint64_t>(2 * kSends));
  EXPECT_LE(probe.seen.load(), static_cast<std::uint64_t>(2 * kSends));
}

/// Records the content packets a relay tree carries: what each node
/// received, and each send of `relay` (bytes and buffer address). On the
/// relay's send to `victim` it flips the last ciphertext byte through
/// Verdict::replace.
class ContentTap final : public net::SendInterceptor {
 public:
  struct Copy {
    util::Bytes bytes;
    const util::Bytes* buffer = nullptr;
  };
  using Key = std::pair<util::NodeId, std::uint64_t>;  // (node, seq)

  ContentTap(util::NodeId relay, util::NodeId victim) : relay_(relay), victim_(victim) {}

  Verdict on_send(const net::SendContext& ctx) override {
    const auto seq = content_seq(*ctx.data);
    if (ctx.from != relay_ || !seq) return {};
    {
      std::lock_guard<std::mutex> lk(mu_);
      sent_[{ctx.to, *seq}] = {*ctx.data, ctx.data};
    }
    Verdict v;
    if (ctx.to == victim_) {
      v.replace = *ctx.data;
      v.replace->back() ^= 0x01;
    }
    return v;
  }

  void on_packet_fate(const net::SendContext& ctx, net::PacketFate fate,
                      util::SimTime) override {
    const auto seq = content_seq(*ctx.data);
    if (fate != net::PacketFate::kDelivered || !seq) return;
    std::lock_guard<std::mutex> lk(mu_);
    received_[{ctx.to, *seq}] = {*ctx.data, ctx.data};
    deliveries_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t deliveries() const { return deliveries_.load(std::memory_order_relaxed); }
  // Read after the transport has shut down.
  const std::map<Key, Copy>& sent() const { return sent_; }
  const std::map<Key, Copy>& received() const { return received_; }

  static std::optional<std::uint64_t> content_seq(const util::Bytes& wire) {
    const auto env = net::EnvelopeView::decode(wire);
    if (!env || env->kind != net::MsgKind::kContent) return std::nullopt;
    return core::ContentPacketView::decode(env->payload).seq;
  }

 private:
  util::NodeId relay_;
  util::NodeId victim_;
  std::mutex mu_;
  std::map<Key, Copy> sent_;
  std::map<Key, Copy> received_;
  std::atomic<std::uint64_t> deliveries_{0};
};

/// `viewer`'s plaintext of the content packet in `wire`.
std::optional<util::Bytes> decrypt_at(net::AsyncClient& viewer, const util::Bytes& wire) {
  const auto env = net::EnvelopeView::decode(wire);
  if (!env) return std::nullopt;
  return viewer.peer_node()->peer().decrypt(
      core::ContentPacketView::decode(env->payload));
}

/// Relay A of the three-deep tree sends its children B, C and D the one
/// buffer it received: same bytes, same address. An interceptor's replace
/// on A's send to C changes C's copy only; B, D and E (below B) receive
/// and decrypt the source's bytes.
void run_relay_fan_out(net::TransportKind kind) {
  net::Deployment d(net::relay_tree_config(kind));
  net::RelayTree tree = net::build_relay_tree(d);
  ASSERT_FALSE(::testing::Test::HasFailure());
  const util::NodeId a = tree.a().config().node;
  ContentTap tap(a, tree.c().config().node);
  d.network().add_interceptor(&tap);

  constexpr std::size_t kPackets = 8;
  crypto::SecureRandom rng(9);
  std::vector<util::Bytes> payloads;
  for (std::size_t i = 0; i < kPackets; ++i) {
    payloads.push_back(rng.bytes(1400));
    const util::SimTime at = static_cast<util::SimTime>(i) * 5 * kMillisecond;
    d.network().post(net::RelayTree::kRoot, at, [&d, p = payloads.back()] {
      d.broadcast(net::RelayTree::kChannel, p);
    });
  }
  const std::uint64_t expected = kPackets * tree.viewers.size();
  if (kind == net::TransportKind::kSim) {
    d.run_for(5 * kSecond);
  } else {
    EXPECT_TRUE(eventually([&] { return tap.deliveries() >= expected; }));
  }
  d.transport().shutdown();  // quiesce before reading loop-confined state
  ASSERT_EQ(tap.deliveries(), expected);

  std::size_t i = 0;
  for (const auto& [key, at_a] : tap.received()) {
    if (key.first != a) continue;
    const std::uint64_t seq = key.second;
    SCOPED_TRACE("seq " + std::to_string(seq));
    ASSERT_LT(i, kPackets);
    const util::Bytes& plain = payloads[i++];
    for (net::AsyncClient* child : {&tree.b(), &tree.c(), &tree.d()}) {
      const ContentTap::Copy& out = tap.sent().at({child->config().node, seq});
      EXPECT_EQ(out.bytes, at_a.bytes);
      EXPECT_EQ(out.buffer, at_a.buffer) << "the relay copied the packet";
    }
    for (net::AsyncClient* viewer : {&tree.b(), &tree.d(), &tree.e()}) {
      const util::Bytes& got = tap.received().at({viewer->config().node, seq}).bytes;
      EXPECT_EQ(got, at_a.bytes);
      EXPECT_EQ(decrypt_at(*viewer, got), plain);
    }
    const util::Bytes& mutated = tap.received().at({tree.c().config().node, seq}).bytes;
    EXPECT_NE(mutated, at_a.bytes);
    EXPECT_NE(decrypt_at(tree.c(), mutated), plain);
  }
  EXPECT_EQ(i, kPackets);
  for (const auto& viewer : tree.viewers) {
    EXPECT_EQ(viewer->content_decrypted(), kPackets);
    EXPECT_EQ(viewer->content_undecryptable(), 0u);
  }
}

TEST(RelayFanOutTest, ChildrenShareTheReceivedBufferOnSim) {
  run_relay_fan_out(net::TransportKind::kSim);
}

TEST(RelayFanOutTest, ChildrenShareTheReceivedBufferOnThread) {
  run_relay_fan_out(net::TransportKind::kThread);
}

TEST(StressTest, RegistryConcurrentSenders) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  const std::string labels[3] = {"ok", "busy", "denied"};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        reg.counter("hits").inc();
        reg.counter("ops", labels[(t + i) % 3]).inc();
        reg.gauge("peak").set_max(i);
        reg.histogram("lat").record(i % 1000);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.counter("hits").value(),
            static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(reg.gauge("peak").value(), kOps - 1);
  EXPECT_EQ(reg.histogram("lat").count(),
            static_cast<std::uint64_t>(kThreads * kOps));
  std::uint64_t family_total = 0;
  for (const auto& [label, counter] : reg.family("ops")) {
    family_total += counter->value();
  }
  EXPECT_EQ(family_total, static_cast<std::uint64_t>(kThreads * kOps));
}

TEST(StressTest, TracerConcurrentSpans) {
  obs::Tracer tracer;
  tracer.set_capacity(100000);
  constexpr int kThreads = 8;
  constexpr int kSpans = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kSpans; ++i) {
        const obs::SpanId id = tracer.begin_span(
            "stress", "span", static_cast<std::uint64_t>(t), i);
        tracer.tag(id, "k", "v");
        tracer.event(id, i, "evt");
        tracer.end_span(id, i + 1, (i % 2) == 0);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(tracer.spans().size(),
            static_cast<std::size_t>(kThreads * kSpans));
  EXPECT_EQ(tracer.open_spans(), 0u);
}

}  // namespace
}  // namespace p2pdrm
