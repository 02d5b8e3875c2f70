// End-to-end observability tests over the networked deployment: one LOGIN1
// exchange traced across client attempts, network hops, and the serving
// manager; the interceptor chain's combine semantics; the drop-cause split;
// and the headline guarantee — two runs of the same seed export
// byte-identical traces.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "client_ops.h"
#include "fault/fault_engine.h"
#include "fault/fault_plan.h"
#include "fault/report.h"
#include "net/envelope.h"
#include "obs/export.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;

DeploymentConfig traced_config() {
  DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.tracing = true;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.processing.light = 1 * kMillisecond;
  cfg.processing.heavy = 8 * kMillisecond;
  return cfg;
}

/// Drops the first `drops` packets of one message kind; sees everything.
class KindDropper final : public SendInterceptor {
 public:
  KindDropper(MsgKind kind, int drops) : kind_(kind), remaining_(drops) {}

  Verdict on_send(const SendContext& ctx) override {
    ++seen_;
    if (remaining_ > 0 && ctx.data != nullptr) {
      if (const auto env = Envelope::decode(*ctx.data);
          env && env->kind == kind_) {
        --remaining_;
        return {.drop = true};
      }
    }
    return {};
  }

  std::uint64_t seen() const { return seen_; }

 private:
  MsgKind kind_;
  int remaining_;
  std::uint64_t seen_ = 0;
};

/// Adds a fixed one-way delay to every packet.
class FixedDelay final : public SendInterceptor {
 public:
  explicit FixedDelay(util::SimTime delay) : delay_(delay) {}

  Verdict on_send(const SendContext&) override {
    ++seen_;
    return {.drop = false, .extra_delay = delay_};
  }

  std::uint64_t seen() const { return seen_; }

 private:
  util::SimTime delay_;
  std::uint64_t seen_ = 0;
};

std::string tag_of(const obs::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.tags) {
    if (k == key) return v;
  }
  return {};
}

// --- the tentpole scenario: one retransmitted LOGIN1, traced end to end ---

TEST(TracingTest, RetransmittedLoginTracesEndToEnd) {
  auto dep = std::make_unique<Deployment>(traced_config());
  dep->add_user("alice@example.com", "pw");
  KindDropper dropper(MsgKind::kLogin1Request, 1);
  dep->network().add_interceptor(&dropper);

  AsyncClient& alice =
      dep->add_client("alice@example.com", "pw", dep->geo().region_at(0));
  EXPECT_EQ(login(*dep, alice), DrmError::kOk);
  EXPECT_EQ(alice.retransmits(), 1u);
  dep->network().remove_interceptor(&dropper);
  EXPECT_GT(dropper.seen(), 0u);

  // The LOGIN1 *round* span: the client span whose request carried a
  // login1-req (the redirect exchange also bills to the LOGIN1 round).
  const obs::Tracer& tracer = dep->tracer();
  const obs::Span* round = nullptr;
  for (const obs::Span& s : tracer.spans()) {
    if (s.category == "client" && s.name == "LOGIN1" &&
        tag_of(s, "kind") == "login1-req") {
      round = &s;
    }
  }
  ASSERT_NE(round, nullptr);
  EXPECT_FALSE(round->open);
  EXPECT_TRUE(round->ok);
  ASSERT_EQ(round->events.size(), 1u);  // exactly one retransmission
  EXPECT_EQ(round->events[0].name, "retransmit");

  // Two attempt children: the dropped one (failed), then the one that won.
  std::vector<const obs::Span*> attempts;
  for (const obs::Span& s : tracer.spans()) {
    if (s.parent == round->id && s.name == "attempt") attempts.push_back(&s);
  }
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_FALSE(attempts[0]->ok);
  EXPECT_TRUE(attempts[1]->ok);
  EXPECT_GE(attempts[1]->start, attempts[0]->end);

  // Hops: the injected drop parents under attempt 1 (zero-length, at send
  // time), the delivered retry under attempt 2 (covering its flight).
  const obs::Span* dropped_hop = nullptr;
  const obs::Span* delivered_hop = nullptr;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name != "hop login1-req") continue;
    if (tag_of(s, "fate") == "injected-drop") dropped_hop = &s;
    if (tag_of(s, "fate") == "delivered") delivered_hop = &s;
  }
  ASSERT_NE(dropped_hop, nullptr);
  ASSERT_NE(delivered_hop, nullptr);
  EXPECT_EQ(dropped_hop->parent, attempts[0]->id);
  EXPECT_EQ(dropped_hop->start, dropped_hop->end);
  EXPECT_FALSE(dropped_hop->ok);
  EXPECT_EQ(delivered_hop->parent, attempts[1]->id);
  EXPECT_GT(delivered_hop->end, delivered_hop->start);

  // Exactly one serve span (one delivery), parented under the attempt that
  // reached the manager, and the response hop flows back under it too.
  std::vector<const obs::Span*> serves;
  const obs::Span* resp_hop = nullptr;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "serve login1-req") serves.push_back(&s);
    if (s.name == "hop login1-resp" && tag_of(s, "fate") == "delivered") {
      resp_hop = &s;
    }
  }
  ASSERT_EQ(serves.size(), 1u);
  EXPECT_EQ(serves[0]->parent, attempts[1]->id);
  EXPECT_EQ(tag_of(*serves[0], "outcome"), "ok");
  ASSERT_NE(resp_hop, nullptr);
  EXPECT_EQ(resp_hop->parent, attempts[1]->id);

  // The round's latency landed in the registry histogram.
  const obs::LatencyHistogram* hist =
      dep->registry().find_histogram("client.round.LOGIN1");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->count(), 1u);
  // Nothing left dangling once the operation completed.
  EXPECT_EQ(tracer.open_spans(), 0u);
}

// --- interceptor chain semantics ---

TEST(TracingTest, ChainDelaysAddAndEveryInterceptorSeesEveryPacket) {
  DeploymentConfig cfg = traced_config();
  cfg.tracing = false;
  auto dep = std::make_unique<Deployment>(cfg);
  dep->add_user("bob@example.com", "pw");

  FixedDelay slow_a(150 * kMillisecond);
  FixedDelay slow_b(250 * kMillisecond);
  dep->network().add_interceptor(&slow_a);
  dep->network().add_interceptor(&slow_a);  // duplicate: no-op
  dep->network().add_interceptor(&slow_b);
  ASSERT_EQ(dep->network().interceptors().size(), 2u);

  AsyncClient& bob =
      dep->add_client("bob@example.com", "pw", dep->geo().region_at(0));
  EXPECT_EQ(login(*dep, bob), DrmError::kOk);

  // Both verdicts applied to both directions: every round pays at least
  // 2 * (150 + 250) ms on top of the link latency.
  ASSERT_FALSE(bob.feedback_log().empty());
  for (const core::LatencySample& s : bob.feedback_log()) {
    EXPECT_GE(s.latency, 800 * kMillisecond) << core::to_string(s.round);
  }
  EXPECT_GT(slow_a.seen(), 0u);
  EXPECT_EQ(slow_a.seen(), slow_b.seen());
  EXPECT_EQ(slow_a.seen(), dep->network().packets_sent());

  dep->network().remove_interceptor(&slow_a);
  EXPECT_EQ(dep->network().interceptors().size(), 1u);
  dep->network().remove_interceptor(&slow_a);  // absent: no-op
  dep->network().remove_interceptor(&slow_b);
  EXPECT_TRUE(dep->network().interceptors().empty());
}

// --- drop-cause split ---

TEST(TracingTest, DropCauseSplitAccountsForEveryLoss) {
  DeploymentConfig cfg = traced_config();
  cfg.default_link.loss = 0.08;  // the links' own loss model
  cfg.client_resilience = true;
  auto dep = std::make_unique<Deployment>(cfg);
  dep->add_user("carol@example.com", "pw");
  AsyncClient& carol =
      dep->add_client("carol@example.com", "pw", dep->geo().region_at(0));
  EXPECT_EQ(login(*dep, carol), DrmError::kOk);

  // An injected loss burst on top: both causes must be distinguishable. A
  // second client logs in *during* the burst — its first attempts are
  // injected drops, its post-burst retries cross the lossy links.
  fault::FaultPlan plan;
  plan.loss_burst(dep->now() + 1 * kSecond, 20 * kSecond, fault::AddrBlock{}, 1.0);
  fault::FaultEngine engine(*dep, plan);
  engine.arm();
  dep->add_user("dave@example.com", "pw");
  dep->run_for(2 * kSecond);  // burst active
  AsyncClient& dave =
      dep->add_client("dave@example.com", "pw", dep->geo().region_at(0));
  EXPECT_EQ(login(*dep, dave), DrmError::kOk);
  dep->run_for(1 * kMinute);

  const Network& net = dep->network();
  EXPECT_GT(net.packets_dropped_injected(), 0u);
  EXPECT_GT(net.packets_dropped_link(), 0u);
  EXPECT_EQ(net.packets_dropped(), net.packets_dropped_injected() +
                                       net.packets_dropped_link() +
                                       net.packets_dropped_no_destination());
  EXPECT_LE(net.packets_delivered() + net.packets_dropped(),
            net.packets_sent());  // the difference is still in flight

  // The registry mirrors agree with the accessors.
  const obs::Registry& reg = dep->registry();
  ASSERT_NE(reg.find_counter("net.packets.sent"), nullptr);
  EXPECT_EQ(reg.find_counter("net.packets.sent")->value(), net.packets_sent());
  EXPECT_EQ(reg.find_counter("net.packets.delivered")->value(),
            net.packets_delivered());
  EXPECT_EQ(reg.find_counter("net.packets.dropped.injected")->value(),
            net.packets_dropped_injected());
  EXPECT_EQ(reg.find_counter("net.packets.dropped.link")->value(),
            net.packets_dropped_link());
  EXPECT_EQ(reg.find_counter("net.packets.dropped.no_destination")->value(),
            net.packets_dropped_no_destination());
}

// --- key-rotation pipeline: rotation spans, overlay fan-out, metrics ---

TEST(TracingTest, KeyRotationFansOutAsSpanTreeWithMetrics) {
  DeploymentConfig cfg = traced_config();
  cfg.seed = 17;
  auto dep = std::make_unique<Deployment>(cfg);
  const geo::RegionId region = dep->geo().region_at(0);
  dep->add_regional_channel(1, "live", region);
  dep->start_channel_server(1);  // default: rekey every minute
  for (int i = 0; i < 4; ++i) {
    const std::string email = "peer-" + std::to_string(i) + "@example.com";
    dep->add_user(email, "pw");
    AsyncClient& client = dep->add_client(email, "pw", region);
    EXPECT_EQ(login(*dep, client), DrmError::kOk);
    EXPECT_EQ(switch_to(*dep, client, 1), DrmError::kOk);
    dep->announce(client);
    client.enable_auto_renewal();
  }
  dep->run_until(dep->now() + 5 * kMinute);  // several rotation intervals

  // Rotation roots: one closed server-side span per traced epoch.
  const obs::Tracer& tracer = dep->tracer();
  std::vector<const obs::Span*> rotations;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "KEY_ROTATION") {
      EXPECT_EQ(s.category, "server");
      EXPECT_EQ(s.parent, 0u);
      EXPECT_FALSE(s.open);
      rotations.push_back(&s);
    }
  }
  EXPECT_GE(rotations.size(), 3u);

  // Every key-blob hop and peer relay in the trace must hang (transitively)
  // under a rotation root: the fan-out is one connected tree per epoch.
  const auto root_of = [&tracer](const obs::Span& s) -> const obs::Span* {
    const obs::Span* cur = &s;
    while (cur->parent != 0) cur = tracer.find(cur->parent);
    return cur;
  };
  std::size_t key_hops = 0, relays = 0;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "hop key-blob") {
      ++key_hops;
      EXPECT_EQ(root_of(s)->name, "KEY_ROTATION");
    }
    if (s.name == "relay key") {
      ++relays;
      EXPECT_EQ(root_of(s)->name, "KEY_ROTATION");
    }
  }
  EXPECT_GT(key_hops, 0u);
  EXPECT_GT(relays, 0u);  // the overlay has depth: someone forwarded

  // The metrics split: epochs minted at the server vs delivered at peers,
  // plus the per-delivery activation margin, all in the shared registry.
  const obs::Registry& reg = dep->registry();
  ASSERT_NE(reg.find_counter("keys.rotations_issued"), nullptr);
  EXPECT_GE(reg.find_counter("keys.rotations_issued")->value(), 3u);
  ASSERT_NE(reg.find_counter("keys.epochs_delivered"), nullptr);
  EXPECT_GE(reg.find_counter("keys.epochs_delivered")->value(), 1u);
  ASSERT_NE(reg.find_histogram("keys.delivery_margin_us"), nullptr);
  EXPECT_EQ(reg.find_histogram("keys.delivery_margin_us")->count(),
            reg.find_counter("keys.epochs_delivered")->value());

  // The resilience report reads the same "keys.*" values: one store.
  const fault::ResilienceReport report = fault::ResilienceReport::collect(*dep);
  EXPECT_EQ(report.rotations_issued,
            reg.find_counter("keys.rotations_issued")->value());
  EXPECT_EQ(report.epochs_delivered,
            reg.find_counter("keys.epochs_delivered")->value());
  ASSERT_NE(reg.find_gauge("keys.max_staleness_us"), nullptr);
  EXPECT_EQ(report.max_key_staleness_us,
            reg.find_gauge("keys.max_staleness_us")->value());
  EXPECT_NE(report.to_string().find("rotations-issued="), std::string::npos);
}

// --- the headline guarantee: byte-identical traces for the same seed ---

struct TracedRun {
  std::string chrome;
  std::string metrics;
};

TracedRun run_traced_scenario() {
  DeploymentConfig cfg = traced_config();
  cfg.seed = 42;
  cfg.client_resilience = true;
  auto dep = std::make_unique<Deployment>(cfg);
  const geo::RegionId region = dep->geo().region_at(0);
  dep->add_regional_channel(1, "news", region);
  dep->start_channel_server(1);
  for (int i = 0; i < 3; ++i) {
    const std::string email = "viewer-" + std::to_string(i) + "@example.com";
    dep->add_user(email, "pw");
    AsyncClient& client = dep->add_client(email, "pw", region);
    login(*dep, client);
    switch_to(*dep, client, 1);
    dep->announce(client);
    client.enable_auto_renewal();
  }

  // A loss burst mid-run, with content flowing through the overlay during
  // it, so fault-engine drops appear in the trace.
  fault::FaultPlan plan;
  plan.loss_burst(dep->now() + 5 * kSecond, 15 * kSecond, fault::AddrBlock{}, 0.7);
  fault::FaultEngine engine(*dep, plan);
  engine.arm();
  const util::Bytes payload{0x42, 0x43, 0x44};
  for (int i = 0; i < 20; ++i) {
    dep->run_for(1 * kSecond);
    dep->broadcast(1, payload);
  }
  dep->run_for(100 * kSecond);

  TracedRun out;
  out.chrome = obs::spans_to_chrome_trace(dep->tracer());
  out.metrics = dep->registry().to_string();
  return out;
}

TEST(TracingTest, SameSeedRunsExportByteIdenticalTraces) {
  const TracedRun first = run_traced_scenario();
  const TracedRun second = run_traced_scenario();
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_EQ(first.metrics, second.metrics);

  // The trace actually contains the interesting material: client rounds,
  // serves, hops, and injected drops from the fault engine.
  EXPECT_NE(first.chrome.find("\"name\":\"LOGIN1\""), std::string::npos);
  EXPECT_NE(first.chrome.find("serve login1-req"), std::string::npos);
  EXPECT_NE(first.chrome.find("hop "), std::string::npos);
  EXPECT_NE(first.chrome.find("injected-drop"), std::string::npos);
  EXPECT_NE(first.metrics.find("net.packets.dropped.injected"),
            std::string::npos);
}

}  // namespace
}  // namespace p2pdrm::net
