// Runtime-telemetry unit tests: the metric naming convention, event-loop
// stats export (idempotence under repeated scrapes), and the crash
// flight recorder (ring wraparound, sanitization, dump format). Recorder
// tests use local instances — only the global one installs signal
// handlers, so these stay signal-free and sanitizer-friendly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/runtime.h"

namespace p2pdrm::obs {
namespace {

// --- metric naming convention ---

TEST(MetricNameTest, AcceptsTheHouseStyle) {
  EXPECT_TRUE(metric_name_ok("net.packets.sent"));
  EXPECT_TRUE(metric_name_ok("client.round.LOGIN1"));
  EXPECT_TRUE(metric_name_ok("macro.round.SWITCH2.hour042"));
  EXPECT_TRUE(metric_name_ok("transport.sched_latency_us"));
  EXPECT_TRUE(metric_name_ok("server.queue.depth{3}"));
  EXPECT_TRUE(metric_name_ok("ops{access-denied}"));
  EXPECT_TRUE(metric_name_ok("macro.shard.imbalance_max_permille"));
  EXPECT_TRUE(metric_name_ok("load.concurrent"));
}

TEST(MetricNameTest, RejectsDrift) {
  EXPECT_FALSE(metric_name_ok(""));
  EXPECT_FALSE(metric_name_ok(".net.sent"));         // leading dot
  EXPECT_FALSE(metric_name_ok("net.sent."));         // trailing dot
  EXPECT_FALSE(metric_name_ok("net..sent"));         // empty segment
  EXPECT_FALSE(metric_name_ok("Net.sent"));          // capitalized subsystem
  EXPECT_FALSE(metric_name_ok("3net.sent"));         // digit-led subsystem
  EXPECT_FALSE(metric_name_ok("server.queue.depth.3"));  // index in the name
  EXPECT_FALSE(metric_name_ok("net.packets-sent"));  // dash in a segment
  EXPECT_FALSE(metric_name_ok("net.sent{}"));        // empty label
  EXPECT_FALSE(metric_name_ok("net.sent{a b}"));     // space in label
  EXPECT_FALSE(metric_name_ok("{orphan}"));          // label without a name
}

// --- LoopStats export ---

TEST(LoopStatsTest, UtilizationIsBusyOverTotal) {
  LoopStats ls;
  EXPECT_EQ(ls.utilization(), 0.0);  // never ran
  ls.busy_us = 300;
  ls.idle_us = 700;
  EXPECT_NEAR(ls.utilization(), 0.3, 1e-12);
}

TEST(LoopStatsTest, ExportIsIdempotentAcrossScrapes) {
  Registry reg;
  LoopStats ls;
  ls.tasks = 10;
  ls.timers_fired = 4;
  ls.busy_us = 900;
  ls.idle_us = 100;
  ls.ready_peak = 7;
  ls.timer_peak = 3;
  LatencyHistogram sched;
  for (int i = 1; i <= 10; ++i) sched.record(i);

  export_loop_stats(reg, "transport", {ls}, &sched);
  // A second scrape of the same (monotone) source must not double-count.
  export_loop_stats(reg, "transport", {ls}, &sched);

  EXPECT_EQ(reg.find_counter("transport.loop.tasks{0}")->value(), 10u);
  EXPECT_EQ(reg.find_counter("transport.loop.timers_fired{0}")->value(), 4u);
  EXPECT_EQ(reg.find_gauge("transport.loop.busy_us{0}")->value(), 900);
  EXPECT_EQ(reg.find_gauge("transport.loop.idle_us{0}")->value(), 100);
  EXPECT_EQ(reg.find_gauge("transport.loop.ready_peak{0}")->value(), 7);
  EXPECT_EQ(reg.find_gauge("transport.loop.timer_peak{0}")->value(), 3);
  EXPECT_EQ(reg.find_gauge("transport.loop.utilization_permille{0}")->value(),
            900);
  const LatencyHistogram* h = reg.find_histogram("transport.sched_latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 10u);

  // The source grew; the counter follows by the delta.
  ls.tasks = 25;
  export_loop_stats(reg, "transport", {ls}, nullptr);
  EXPECT_EQ(reg.find_counter("transport.loop.tasks{0}")->value(), 25u);

  // Every exported name obeys the convention.
  for (const auto& [name, c] : reg.counters()) {
    EXPECT_TRUE(metric_name_ok(name)) << name;
  }
  for (const auto& [name, g] : reg.gauges()) {
    EXPECT_TRUE(metric_name_ok(name)) << name;
  }
}

// --- flight recorder ---

TEST(FlightRecorderTest, DisarmedRecordIsANoop) {
  FlightRecorder fr;
  fr.record("net.send", 1, 2);
  fr.attach_thread("t");
  EXPECT_TRUE(fr.snapshot().empty());
}

TEST(FlightRecorderTest, RecordsSanitizedEvents) {
  FlightRecorder fr;
  fr.arm("/dev/null");
  fr.attach_thread("loop-0");
  fr.record("net.send", 7, 9, "ok");
  fr.record("bad\"kind\\here", 1, 0, "tab\there quote\"");
  fr.disarm();

  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].label, "loop-0");
  EXPECT_EQ(snap[0].recorded, 2u);
  EXPECT_EQ(snap[0].dropped, 0u);
  ASSERT_EQ(snap[0].events.size(), 2u);
  EXPECT_EQ(snap[0].events[0].kind, "net.send");
  EXPECT_EQ(snap[0].events[0].a, 7u);
  EXPECT_EQ(snap[0].events[0].b, 9u);
  EXPECT_EQ(snap[0].events[0].detail, "ok");
  // JSON-breaking bytes were replaced at record time.
  EXPECT_EQ(snap[0].events[1].kind, "bad_kind_here");
  EXPECT_EQ(snap[0].events[1].detail, "tab_here quote_");
}

TEST(FlightRecorderTest, RingWrapsKeepingTheNewestEvents) {
  FlightRecorder fr;
  fr.arm("/dev/null");
  fr.attach_thread("wrap");
  const std::uint64_t extra = 13;
  const std::uint64_t total = FlightRecorder::kRingCapacity + extra;
  for (std::uint64_t i = 0; i < total; ++i) {
    fr.record("tick", i);
  }
  fr.disarm();

  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].recorded, total);
  EXPECT_EQ(snap[0].dropped, extra);
  ASSERT_EQ(snap[0].events.size(), FlightRecorder::kRingCapacity);
  // The oldest retained event is exactly the first survivor of the wrap...
  EXPECT_EQ(snap[0].events.front().seq, extra);
  EXPECT_EQ(snap[0].events.front().a, extra);
  // ...and sequence numbers run contiguously to the last record.
  EXPECT_EQ(snap[0].events.back().seq, total - 1);
  for (std::size_t i = 1; i < snap[0].events.size(); ++i) {
    EXPECT_EQ(snap[0].events[i].seq, snap[0].events[i - 1].seq + 1);
  }
}

TEST(FlightRecorderTest, PerThreadRingsAreIndependent) {
  FlightRecorder fr;
  fr.arm("/dev/null");
  fr.attach_thread("main");
  fr.record("main.event", 1);
  std::thread other([&fr] {
    fr.attach_thread("other");
    fr.record("other.event", 2);
    fr.record("other.event", 3);
  });
  other.join();
  fr.disarm();

  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].label, "main");
  EXPECT_EQ(snap[0].recorded, 1u);
  EXPECT_EQ(snap[1].label, "other");
  EXPECT_EQ(snap[1].recorded, 2u);
}

TEST(FlightRecorderTest, DumpIsParseableAndCarriesTheRings) {
  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  FlightRecorder fr;
  fr.arm(path);
  fr.attach_thread("loop-1");
  fr.record("net.send", 12, 34, "breadcrumb");
  fr.record("loop.stop", 1);
  ASSERT_TRUE(fr.dump("unit-test"));
  fr.disarm();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  std::remove(path.c_str());

  EXPECT_NE(dump.find("\"schema\":\"p2pdrm.flight.v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(dump.find("\"label\":\"loop-1\""), std::string::npos);
  EXPECT_NE(dump.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"net.send\""), std::string::npos);
  EXPECT_NE(dump.find("\"a\":12,\"b\":34"), std::string::npos);
  EXPECT_NE(dump.find("\"detail\":\"breadcrumb\""), std::string::npos);
  // Structural sanity a post-mortem parser relies on: balanced braces and
  // brackets, one trailing newline.
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '{'),
            std::count(dump.begin(), dump.end(), '}'));
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '['),
            std::count(dump.begin(), dump.end(), ']'));
  EXPECT_EQ(dump.back(), '\n');
}

TEST(FlightRecorderTest, ResetForgetsRingsAndReclaims) {
  FlightRecorder fr;
  fr.arm("/dev/null");
  fr.record("before", 1);
  ASSERT_EQ(fr.snapshot().size(), 1u);
  fr.reset();
  EXPECT_FALSE(fr.armed());
  EXPECT_TRUE(fr.snapshot().empty());
  fr.record("while_disarmed", 2);  // reset leaves it disarmed
  EXPECT_TRUE(fr.snapshot().empty());
  fr.arm("/dev/null");
  fr.record("after", 3);
  fr.disarm();
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].events[0].kind, "after");
}

// The recorder caches a thread's ring per (owner, generation); a second
// recorder at a dead one's address must claim its own.
TEST(FlightRecorderTest, SuccessiveRecordersInOneSlotKeepTheirOwnRings) {
  std::optional<FlightRecorder> slot;
  const FlightRecorder* first = &slot.emplace();
  slot->arm("/dev/null");
  slot->attach_thread("first");
  slot->record("first.event", 1);
  slot->disarm();

  slot.emplace();
  ASSERT_EQ(&*slot, first);
  slot->arm("/dev/null");
  slot->record("second.event", 2);
  slot->disarm();
  const auto snap = slot->snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].events.size(), 1u);
  EXPECT_EQ(snap[0].events[0].kind, "second.event");
}

}  // namespace
}  // namespace p2pdrm::obs
