// Observability subsystem unit tests: log-bucketed histogram layout and
// quantile error bounds, registry counters/gauges/families, tracer span
// bookkeeping, and exporter formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "obs/runtime.h"
#include "obs/trace.h"

namespace p2pdrm::obs {
namespace {

// --- histogram bucket layout ---

TEST(HistogramTest, SmallValuesGetExactBuckets) {
  // The first kSubBuckets buckets hold exactly one integer each.
  for (std::int64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(i, static_cast<std::size_t>(v));
    EXPECT_EQ(LatencyHistogram::bucket_lower(i), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(i), v + 1);
  }
  EXPECT_EQ(LatencyHistogram::bucket_index(-5), 0u);  // clamps
}

TEST(HistogramTest, BucketBoundariesPartitionTheLine) {
  // Every value maps into [lower, upper) of its own bucket, and buckets
  // tile without gaps: upper(i) == lower(i+1).
  std::size_t prev = 0;
  for (std::int64_t v : {8LL, 9LL, 15LL, 16LL, 17LL, 100LL, 1000LL, 4095LL,
                         4096LL, 1000000LL, (1LL << 40)}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    EXPECT_GE(v, LatencyHistogram::bucket_lower(i)) << v;
    EXPECT_LT(v, LatencyHistogram::bucket_upper(i)) << v;
    EXPECT_GE(i, prev) << v;  // monotone in the value
    prev = i;
  }
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(i),
              LatencyHistogram::bucket_lower(i + 1)) << i;
  }
}

TEST(HistogramTest, BucketRelativeWidthBounded) {
  // Above 2^kPrecisionBits each bucket's width is at most lower/kSubBuckets,
  // the HdrHistogram guarantee behind the quantile error bound.
  for (std::int64_t v = LatencyHistogram::kSubBuckets; v < (1 << 20);
       v = v * 3 / 2 + 1) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    const std::int64_t lower = LatencyHistogram::bucket_lower(i);
    const std::int64_t width = LatencyHistogram::bucket_upper(i) - lower;
    EXPECT_LE(width * LatencyHistogram::kSubBuckets, lower) << v;
  }
}

TEST(HistogramTest, StatsTrackExactly) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramTest, QuantileErrorBounded) {
  // Deterministic pseudo-random stream (LCG) of values spanning five orders
  // of magnitude; every quantile estimate must sit within one half bucket
  // width (relative error 1/16) of the exact order statistic.
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::int64_t v = 8 + static_cast<std::int64_t>((x >> 33) % 10000000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(std::ceil(q * values.size())) -
            (q > 0 ? 1 : 0));
    const double exact = static_cast<double>(values[rank]);
    const double est = h.quantile(q);
    EXPECT_LE(std::abs(est - exact), exact / 16.0 + 1.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  // Tail quantiles are clamped into the observed range.
  EXPECT_LE(h.quantile(1.0), static_cast<double>(h.max()));
  EXPECT_GE(h.quantile(0.0), static_cast<double>(h.min()));
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (std::int64_t v = 1; v < 1000; v += 7) {
    (v % 2 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.buckets(), combined.buckets());
  EXPECT_DOUBLE_EQ(a.p95(), combined.p95());
}

TEST(HistogramTest, SelfMergeDoubles) {
  LatencyHistogram h;
  h.record(10);
  h.record(100);
  h.merge(h);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 220.0);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 100);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.record(42);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

// --- registry ---

TEST(RegistryTest, CountersGaugesHistogramsByName) {
  Registry reg;
  reg.counter("a.total").inc(3);
  reg.gauge("a.depth").set(-7);
  reg.histogram("a.latency").record(100);

  ASSERT_NE(reg.find_counter("a.total"), nullptr);
  EXPECT_EQ(reg.find_counter("a.total")->value(), 3u);
  EXPECT_EQ(reg.find_gauge("a.depth")->value(), -7);
  EXPECT_EQ(reg.find_histogram("a.latency")->count(), 1u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);

  // Find-or-create returns the same object.
  Counter& c = reg.counter("a.total");
  c.inc();
  EXPECT_EQ(reg.find_counter("a.total")->value(), 4u);
}

TEST(RegistryTest, FamiliesEnumerateInLabelOrder) {
  Registry reg;
  reg.counter("ops", "timeout").inc(2);
  reg.counter("ops", "access-denied").inc(1);
  reg.counter("ops", "ok").inc(5);
  reg.counter("opsx", "decoy").inc(9);  // shares the prefix, not the family

  const auto fam = reg.family("ops");
  ASSERT_EQ(fam.size(), 3u);
  EXPECT_EQ(fam[0].first, "access-denied");
  EXPECT_EQ(fam[1].first, "ok");
  EXPECT_EQ(fam[1].second->value(), 5u);
  EXPECT_EQ(fam[2].first, "timeout");
  EXPECT_NE(reg.find_counter("ops{ok}"), nullptr);
  EXPECT_TRUE(reg.family("absent").empty());
}

TEST(RegistryTest, ResetZeroesButKeepsReferencesValid) {
  Registry reg;
  Counter& c = reg.counter("n");
  Gauge& g = reg.gauge("g");
  LatencyHistogram& h = reg.histogram("h");
  c.inc(5);
  g.set(5);
  h.record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_TRUE(h.empty());
  c.inc();  // reference still live and wired to the registry
  EXPECT_EQ(reg.find_counter("n")->value(), 1u);
}

TEST(RegistryTest, ToStringDeterministicAndSorted) {
  Registry a, b;
  for (Registry* r : {&a, &b}) {
    r->counter("z.last").inc(1);
    r->counter("a.first").inc(2);
    r->histogram("m.mid").record(50);
  }
  EXPECT_EQ(a.to_string(), b.to_string());
  const std::string s = a.to_string();
  // Name order within a metric kind is lexicographic.
  EXPECT_LT(s.find("a.first"), s.find("z.last"));
  EXPECT_NE(s.find("m.mid"), std::string::npos);
}

// --- tracer ---

TEST(TracerTest, SpanLifecycleAndParenting) {
  Tracer t;
  const SpanId root = t.begin_span("client", "LOGIN1", 1000, 10);
  const SpanId child = t.begin_span("client", "attempt", 1000, 10, root);
  t.tag(child, "try", "1");
  t.event(child, 12, "retransmit", "t=2");
  EXPECT_EQ(t.open_spans(), 2u);
  t.end_span(child, 20, false);
  t.end_span(root, 25, true);
  EXPECT_EQ(t.open_spans(), 0u);

  const Span* c = t.find(child);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->start, 10);
  EXPECT_EQ(c->end, 20);
  EXPECT_FALSE(c->ok);
  ASSERT_EQ(c->tags.size(), 1u);
  EXPECT_EQ(c->tags[0].first, "try");
  ASSERT_EQ(c->events.size(), 1u);
  EXPECT_EQ(c->events[0].at, 12);
  EXPECT_EQ(c->events[0].name, "retransmit");
  EXPECT_EQ(t.find(999), nullptr);
}

TEST(TracerTest, NullSpanOperationsAreNoOps) {
  Tracer t;
  t.tag(0, "k", "v");
  t.event(0, 1, "e");
  t.end_span(0, 1);
  EXPECT_TRUE(t.spans().empty());
}

TEST(TracerTest, CapacityCapsAndCountsDrops) {
  Tracer t;
  t.set_capacity(2);
  EXPECT_NE(t.begin_span("c", "a", 1, 0), 0u);
  EXPECT_NE(t.begin_span("c", "b", 1, 0), 0u);
  EXPECT_EQ(t.begin_span("c", "over", 1, 0), 0u);
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans_dropped(), 1u);
}

TEST(TracerTest, RequestBindingTable) {
  Tracer t;
  const SpanId s = t.begin_span("client", "LOGIN1", 7, 0);
  t.bind_request(7, 42, s);
  EXPECT_EQ(t.bound_request(7, 42), s);
  EXPECT_EQ(t.bound_request(7, 43), 0u);
  EXPECT_EQ(t.bound_request(8, 42), 0u);
  t.unbind_request(7, 42);
  EXPECT_EQ(t.bound_request(7, 42), 0u);
}

// --- exporters ---

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("l1\nl2\t."), "l1\\nl2\\t.");
  EXPECT_EQ(json_escape("cr\r"), "cr\\r");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  // The artifact writer escapes through the same function.
  JsonWriter w;
  w.begin_object().kv("k\r", "a\"b").end_object();
  EXPECT_EQ(w.str(), "{\"k\\r\": \"a\\\"b\"}\n");
}

TEST(ExportTest, ChromeTraceShape) {
  Tracer t;
  const SpanId a = t.begin_span("client", "LOGIN1", 1000, 5);
  t.event(a, 8, "retransmit");
  t.tag(a, "kind", "login1-req");
  t.end_span(a, 15, true);
  t.begin_span("net", "hop \"x\"", 2, 7);

  const std::string out = spans_to_chrome_trace(t);
  EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(out.find("\"kind\":\"login1-req\""), std::string::npos);  // tag
  EXPECT_NE(out.find("\\\"x\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // complete slice
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(out.find("\"dur\":10"), std::string::npos);
  EXPECT_EQ(out.rfind("]}\n"), out.size() - 3);
}

TEST(ExportTest, PrometheusSanitizesNamesAndEmitsHelpType) {
  Registry reg;
  reg.counter("net.packets.sent").inc(5);
  reg.counter("ops", "access-denied").inc(2);
  reg.counter("ops", "ok").inc(3);
  reg.gauge("load.concurrent").set(42);
  reg.histogram("transport.sched_latency_us").record(100);

  const std::string out = registry_to_prometheus(reg);

  // Dots become underscores in sample lines; the dotted original survives
  // only inside HELP comments.
  EXPECT_NE(out.find("net_packets_sent 5"), std::string::npos);
  EXPECT_NE(out.find("load_concurrent 42"), std::string::npos);
  EXPECT_EQ(out.find("\nnet.packets"), std::string::npos);

  // Family labels ride as a Prometheus label, not in the name.
  EXPECT_NE(out.find("ops{label=\"access-denied\"} 2"), std::string::npos);
  EXPECT_NE(out.find("ops{label=\"ok\"} 3"), std::string::npos);

  // HELP maps the sanitized name back to the dotted original; TYPE follows.
  EXPECT_NE(out.find("# HELP net_packets_sent net.packets.sent\n"
                     "# TYPE net_packets_sent counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE load_concurrent gauge\n"), std::string::npos);
  EXPECT_NE(out.find("# HELP transport_sched_latency_us "
                     "transport.sched_latency_us\n"
                     "# TYPE transport_sched_latency_us summary\n"),
            std::string::npos);

  // One HELP/TYPE pair per family even with several samples.
  const std::string ops_type = "# TYPE ops counter";
  const std::size_t first = out.find(ops_type);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.find(ops_type, first + 1), std::string::npos);

  // Summaries expose quantiles plus _sum/_count.
  EXPECT_NE(out.find("{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(out.find("transport_sched_latency_us_count 1"), std::string::npos);
}

TEST(ExportTest, PrometheusEveryLineIsExposable) {
  Registry reg;
  reg.counter("a.total").inc();
  reg.gauge("b.depth", "7").set(1);
  reg.histogram("c.lat_us").record(5);
  const std::string out = registry_to_prometheus(reg);
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t end = out.find('\n', start);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    // "<name>[{label}] <value>": the name part is strictly
    // [a-zA-Z_:][a-zA-Z0-9_:]*.
    const std::size_t stop = line.find_first_of("{ ");
    ASSERT_NE(stop, std::string::npos) << line;
    for (std::size_t i = 0; i < stop; ++i) {
      const char c = line[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok && !(i == 0 && c >= '0' && c <= '9')) << line;
    }
  }
}

// --- the repo-wide metric name inventory ---

// Every metric name any subsystem registers, as documented in DESIGN.md §7.
// New metrics must be added here and must pass the naming convention —
// this is the tripwire against drift (unit-less quantities, instance
// indices embedded in names, capitalized subsystems).
TEST(NamingTest, InventoryObeysTheConvention) {
  const char* kNames[] = {
      // net
      "net.packets.sent", "net.packets.delivered",
      "net.packets.dropped.injected", "net.packets.dropped.link",
      "net.packets.dropped.no_destination",
      // store
      "store.replication.rounds", "store.replication.interval_us",
      "store.lost_records", "store.audit.max_loss_window_us",
      "store.recovery.count", "store.recovery.time_us",
      "store.recovery.full_transfers", "store.recovery.antientropy_ops",
      "store.recovery.replayed", "store.replay.corrupt",
      "store.replay.corrupt_bytes", "store.snapshots.taken",
      // keys
      "keys.rotations_issued", "keys.epochs_delivered",
      "keys.max_staleness_us", "keys.delivery_margin_us",
      // server / client
      "server.outcome{login1-req:ok}", "server.outcome{switch2-req:access-denied}",
      "server.outcome{redirect-req:unknown-user}", "server.drops{malformed}", "server.shed{login1-req}", "server.busy_sent",
      "server.queue.depth{0}", "client.round.LOGIN1", "client.round.JOIN",
      "client.breaker.fast_fail", "client.retry_budget.exhausted",
      "client.busy.received", "client.busy.deferred",
      // adversary
      "abuse.probes.sent", "abuse.probes.accepted", "abuse.probes.rejected",
      "abuse.probes.timeout", "abuse.fuzz.mutations", "abuse.sybil.attempted",
      "abuse.sybil.admitted", "abuse.sybil.rejected", "abuse.ring.logins_ok",
      "abuse.ring.switches_ok", "abuse.ring.survivors", "abuse.ring.evictions",
      // tracker
      "tracker.announcements", "tracker.load_updates", "tracker.unregisters",
      "tracker.evictions", "tracker.samples", "tracker.peers",
      // macro-sim
      "macro.key.rotations_issued", "macro.key.epochs_delivered",
      "macro.key.delivery_lag_us", "macro.key.max_staleness_us",
      "macro.round.LOGIN1", "macro.round.SWITCH2.hour042",
      "macro.round.JOIN.peak", "macro.round.JOIN.offpeak",
      "macro.shard.events{0}", "macro.shard.imbalance_max_permille",
      // load + transport runtime
      "load.concurrent", "load.clients", "transport.loop.tasks{0}",
      "transport.loop.timers_fired{1}", "transport.loop.busy_us{0}",
      "transport.loop.idle_us{0}", "transport.loop.ready_peak{0}",
      "transport.loop.timer_peak{0}", "transport.loop.utilization_permille{0}",
      "transport.sched_latency_us",
  };
  for (const char* name : kNames) {
    EXPECT_TRUE(metric_name_ok(name)) << name;
  }
}

}  // namespace
}  // namespace p2pdrm::obs
