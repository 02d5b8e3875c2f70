// Runtime-telemetry unit tests: the metric naming convention, event-loop
// stats export (idempotence under repeated scrapes), the scoped-timer
// profiler's collapsed-stack / Chrome-trace renderings, and the crash
// flight recorder (ring wraparound, sanitization, dump format). Recorder
// tests use local instances — only the global one installs signal
// handlers, so these stay signal-free and sanitizer-friendly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/runtime.h"
#include "obs/trace.h"

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

// --- profiler ---

TEST(ProfilerTest, DisabledHooksRecordNothing) {
  Profiler p;
  p.begin("a");
  p.end("a");
  { Profiler::Scope scope(p, "b"); }
  p.attach_thread("t");
  EXPECT_EQ(p.recorded(), 0u);
  EXPECT_TRUE(p.collapsed().empty());
}

TEST(ProfilerTest, CollapsedStacksNestAndSort) {
  Profiler p;
  p.enable();
  p.attach_thread("worker");
  p.begin("outer");
  p.begin("inner");
  p.end("inner");
  p.end("outer");
  p.begin("alone");
  p.end("alone");
  p.disable();

  EXPECT_EQ(p.recorded(), 6u);
  EXPECT_EQ(p.dropped(), 0u);
  const std::string out = p.collapsed();
  EXPECT_NE(out.find("worker;outer "), std::string::npos);
  EXPECT_NE(out.find("worker;outer;inner "), std::string::npos);
  EXPECT_NE(out.find("worker;alone "), std::string::npos);
  // Lexicographically sorted: "alone" before "outer".
  EXPECT_LT(out.find("worker;alone "), out.find("worker;outer "));
  // Three distinct stacks, one line each.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(ProfilerTest, MismatchedEndsAreTolerated) {
  Profiler p;
  p.enable();
  p.attach_thread("t");
  p.end("never_began");  // dropped silently
  p.begin("outer");
  p.begin("inner");
  p.end("outer");        // unwinds: closes inner, then outer
  p.begin("open_at_exit");
  p.disable();
  const std::string out = p.collapsed();
  EXPECT_EQ(out.find("t;never_began"), std::string::npos);
  EXPECT_NE(out.find("t;outer;inner "), std::string::npos);
  EXPECT_NE(out.find("t;outer "), std::string::npos);
  EXPECT_NE(out.find("t;open_at_exit "), std::string::npos);

  // The Chrome export walks the same buffer: one slice per closed frame.
  const std::string trace = p.chrome_trace();
  EXPECT_EQ(trace.find("\"never_began\""), std::string::npos);
  for (const char* name : {"\"outer\"", "\"inner\"", "\"open_at_exit\""}) {
    const std::size_t at = trace.find(name);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_EQ(trace.find(name, at + 1), std::string::npos) << name;
  }
  std::size_t slices = 0;
  for (std::size_t at = trace.find("\"ph\":\"X\""); at != std::string::npos;
       at = trace.find("\"ph\":\"X\"", at + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, 3u);
}

TEST(ProfilerTest, BufferCapCountsDrops) {
  Profiler p;
  p.enable();
  p.attach_thread("hot");
  for (std::size_t i = 0; i < Profiler::kMaxEventsPerThread + 5; ++i) {
    p.begin("x");
  }
  p.disable();
  EXPECT_EQ(p.recorded(), Profiler::kMaxEventsPerThread);
  EXPECT_EQ(p.dropped(), 5u);
}

TEST(ProfilerTest, ChromeTraceShapeAndMerge) {
  Profiler p;
  p.enable();
  p.attach_thread("loop-0");
  {
    Profiler::Scope scope(p, "transport.task");
  }
  p.disable();

  const std::string trace = p.chrome_trace();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"loop-0\""), std::string::npos);
  EXPECT_NE(trace.find("\"transport.task\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(trace.rfind("]}\n"), trace.size() - 3);

  // Merged with a tracer: both the span and the profiler frame land in the
  // same traceEvents array, once each.
  Tracer t;
  const SpanId s = t.begin_span("client", "LOGIN1", 1000, 5);
  t.end_span(s, 15, true);
  const std::string merged = merged_chrome_trace(t, p);
  EXPECT_EQ(merged.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(merged.find("\"LOGIN1\""), std::string::npos);
  EXPECT_NE(merged.find("\"transport.task\""), std::string::npos);
  EXPECT_EQ(merged.rfind("]}\n"), merged.size() - 3);
  // Well-formed splice: braces stay balanced.
  EXPECT_EQ(std::count(merged.begin(), merged.end(), '{'),
            std::count(merged.begin(), merged.end(), '}'));
}

TEST(ProfilerTest, ResetDropsBuffersAndReclaims) {
  Profiler p;
  p.enable();
  p.begin("a");
  p.end("a");
  EXPECT_EQ(p.recorded(), 2u);
  p.reset();
  EXPECT_EQ(p.recorded(), 0u);
  p.begin("b");  // re-claims a fresh buffer after the generation bump
  EXPECT_EQ(p.recorded(), 1u);
  p.disable();
}

// A thread caches its buffer per Profiler; a second Profiler built at a dead
// one's address must not inherit the dead one's buffer.
TEST(ProfilerTest, SuccessiveProfilersInOneSlotKeepTheirOwnFrames) {
  std::optional<Profiler> slot;
  const Profiler* first = &slot.emplace();
  slot->enable();
  slot->attach_thread("first");
  { Profiler::Scope scope(*slot, "first_frame"); }
  slot->disable();
  EXPECT_NE(slot->collapsed().find("first;first_frame "), std::string::npos);

  slot.emplace();
  ASSERT_EQ(&*slot, first);
  slot->enable();
  { Profiler::Scope scope(*slot, "second_frame"); }
  slot->disable();
  EXPECT_EQ(slot->recorded(), 2u);
  const std::string out = slot->collapsed();
  EXPECT_EQ(out.find("first"), std::string::npos) << out;
  EXPECT_NE(out.find(";second_frame "), std::string::npos) << out;
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

// The recorder caches a thread's ring the way the profiler caches its
// buffer; a second recorder at a dead one's address must claim its own.
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
