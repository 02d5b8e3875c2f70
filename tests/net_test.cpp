// Network substrate: envelope codec, delivery/latency/loss semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "net/deployment.h"
#include "net/envelope.h"
#include "net/network.h"
#include "net/service_nodes.h"
#include "net/transmitter.h"
#include "transport/sim_transport.h"

namespace p2pdrm::net {
namespace {

using util::Bytes;
using util::bytes_of;
using util::kMillisecond;
using util::kSecond;

TEST(EnvelopeTest, RoundTrip) {
  Envelope e;
  e.kind = MsgKind::kSwitch2Request;
  e.request_id = 0xdeadbeefcafeull;
  e.payload = bytes_of("payload");
  const auto d = Envelope::decode(e.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, e.kind);
  EXPECT_EQ(d->request_id, e.request_id);
  EXPECT_EQ(d->payload, e.payload);
}

TEST(EnvelopeTest, MalformedRejected) {
  EXPECT_FALSE(Envelope::decode({}).has_value());
  EXPECT_FALSE(Envelope::decode(bytes_of("x")).has_value());
  // Bad kind byte.
  Envelope e;
  e.kind = MsgKind::kContent;
  Bytes wire = e.encode();
  wire[0] = 200;
  EXPECT_FALSE(Envelope::decode(wire).has_value());
  wire[0] = 0;
  EXPECT_FALSE(Envelope::decode(wire).has_value());
  // Trailing junk.
  Bytes trailing = e.encode();
  trailing.push_back(0);
  EXPECT_FALSE(Envelope::decode(trailing).has_value());
}

TEST(EnvelopeTest, KindNames) {
  EXPECT_EQ(to_string(MsgKind::kLogin1Request), "login1-req");
  EXPECT_EQ(to_string(MsgKind::kContent), "content");
}

class RecordingNode final : public Node {
 public:
  void on_packet(const Packet& packet) override { received.push_back(packet); }
  std::vector<Packet> received;
};

LinkConfig fast_link() {
  LinkConfig link;
  link.latency.floor = 10 * kMillisecond;
  link.latency.median = 20 * kMillisecond;
  link.latency.sigma = 0.2;
  return link;
}

TEST(NetworkTest, DeliversWithLatency) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(1));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);

  net.send(1, 2, bytes_of("hello"));
  EXPECT_TRUE(b.received.empty());  // nothing until events run
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, 1u);
  EXPECT_EQ(b.received[0].from_addr, util::parse_netaddr("10.0.0.1"));
  EXPECT_EQ(b.received[0].data(), bytes_of("hello"));
  EXPECT_GE(sim.now(), 10 * kMillisecond);  // at least the floor
}

TEST(NetworkTest, UnknownDestinationVanishes) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(2));
  RecordingNode a;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.send(1, 99, bytes_of("void"));
  sim.run();
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(NetworkTest, DetachDropsInFlight) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(3));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  net.send(1, 2, bytes_of("late"));
  net.detach(2);
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(NetworkTest, LossDropsProbabilistically) {
  sim::Simulation sim;
  LinkConfig lossy = fast_link();
  lossy.loss = 0.5;
  Network net(sim, lossy, crypto::SecureRandom(4));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  for (int i = 0; i < 1000; ++i) net.send(1, 2, bytes_of("x"));
  sim.run();
  // Both endpoints lossy: delivery probability (1-0.5)^2 = 0.25.
  EXPECT_NEAR(static_cast<double>(b.received.size()), 250.0, 60.0);
  EXPECT_EQ(net.packets_sent(), 1000u);
  EXPECT_EQ(net.packets_delivered(), b.received.size());
}

TEST(NetworkTest, PerNodeLinkOverride) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(5));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  LinkConfig broken = fast_link();
  broken.loss = 1.0;
  net.set_link(2, broken);
  for (int i = 0; i < 20; ++i) net.send(1, 2, bytes_of("x"));
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(NetworkTest, AddressLookup) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(6));
  RecordingNode a;
  net.attach(7, util::parse_netaddr("10.1.1.1"), &a);
  EXPECT_EQ(net.addr_of(7), util::parse_netaddr("10.1.1.1"));
  EXPECT_EQ(net.node_at(util::parse_netaddr("10.1.1.1")), 7u);
  EXPECT_FALSE(net.addr_of(9).has_value());
  EXPECT_FALSE(net.node_at(util::parse_netaddr("10.9.9.9")).has_value());
  net.detach(7);
  EXPECT_FALSE(net.node_at(util::parse_netaddr("10.1.1.1")).has_value());
}

TEST(NetworkTest, DeterministicForSeed) {
  const auto run = [] {
    sim::Simulation sim;
    LinkConfig lossy = fast_link();
    lossy.loss = 0.3;
    Network net(sim, lossy, crypto::SecureRandom(42));
    RecordingNode a, b;
    net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
    net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
    for (int i = 0; i < 100; ++i) net.send(1, 2, {static_cast<std::uint8_t>(i)});
    sim.run();
    std::vector<std::uint8_t> order;
    for (const Packet& p : b.received) order.push_back(p.data()[0]);
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(ServiceNodeTest, MalformedPacketsSilentlyDropped) {
  // Garbage at a manager node elicits no response at all (no error replies
  // an attacker could use as an oracle or amplifier).
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(8));
  crypto::SecureRandom rng(9);
  auto domain = std::make_shared<services::UserManagerDomain>(
      services::UserManagerConfig{}, crypto::generate_rsa_keypair(rng, 512),
      rng.bytes(32));
  services::UserManager um(domain, nullptr, rng.fork());
  obs::Registry registry;
  ServiceNode um_node(net, 2, user_manager_routes(um), registry);
  RecordingNode client;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &client);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &um_node);

  net.send(1, 2, util::bytes_of("not an envelope"));
  Envelope wrong_kind;
  wrong_kind.kind = MsgKind::kJoinRequest;  // not a UM message
  wrong_kind.payload = util::bytes_of("x");
  net.send(1, 2, wrong_kind.encode());
  Envelope bad_payload;
  bad_payload.kind = MsgKind::kLogin1Request;
  bad_payload.payload = util::bytes_of("truncated");
  net.send(1, 2, bad_payload.encode());
  sim.run();
  EXPECT_TRUE(client.received.empty());
  const obs::Counter* malformed = registry.find_counter("server.drops{malformed}");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value(), 2u);  // the garbage and the bad payload
}

TEST(ServiceNodeTest, UnservedKindDrawsNoReplyAndIsNotMalformed) {
  // A well-formed request of a kind the node has no route for is someone
  // else's traffic: ignored, and not counted as a malformed drop.
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(11));
  services::RedirectionManager rm;
  obs::Registry registry;
  ServiceNode node(net, 2, redirection_routes(rm), registry);
  RecordingNode client;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &client);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &node);

  for (MsgKind kind : {MsgKind::kLogin1Request, MsgKind::kSwitch2Request,
                       MsgKind::kJoinRequest, MsgKind::kRedirectResponse}) {
    Envelope env;
    env.kind = kind;
    env.request_id = 1;
    env.payload = services::RedirectRequest{"a@x.com"}.encode();
    net.send(1, 2, env.encode());
  }
  sim.run();
  EXPECT_TRUE(client.received.empty());
  EXPECT_EQ(registry.find_counter("server.drops{malformed}"), nullptr);

  // The same node does count a request it serves but cannot decode.
  Envelope bad;
  bad.kind = MsgKind::kRedirectRequest;
  net.send(1, 2, bad.encode());
  sim.run();
  EXPECT_TRUE(client.received.empty());
  const obs::Counter* malformed = registry.find_counter("server.drops{malformed}");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value(), 1u);
}

TEST(ServiceNodeTest, ServedRequestCountsOneOutcomeShedAndMalformedNone) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(12));
  obs::Registry registry;
  RecordingNode client;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &client);

  // Served: one bump of server.outcome{<kind>:<verdict>} per request.
  services::RedirectionManager rm;
  rm.register_domain(0, {util::parse_netaddr("10.0.0.9"), {}});
  rm.assign_user("a@x.com", 0);
  ServiceNode redirect(net, 2, redirection_routes(rm), registry);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &redirect);
  const auto send_redirect = [&](const std::string& email) {
    Envelope env;
    env.kind = MsgKind::kRedirectRequest;
    env.request_id = 1;
    env.payload = services::RedirectRequest{email}.encode();
    net.send(1, 2, env.encode());
    sim.run();
  };
  send_redirect("a@x.com");
  const obs::Counter* ok = registry.find_counter("server.outcome{redirect-req:ok}");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value(), 1u);
  EXPECT_EQ(registry.find_counter("server.outcome{redirect-req:unknown-user}"), nullptr);
  send_redirect("nobody@x.com");
  EXPECT_EQ(ok->value(), 1u);
  EXPECT_EQ(registry.find_counter("server.outcome{redirect-req:unknown-user}")->value(),
            1u);

  // Malformed: a drop, not an outcome.
  Envelope bad;
  bad.kind = MsgKind::kRedirectRequest;
  net.send(1, 2, bad.encode());
  sim.run();
  EXPECT_EQ(registry.find_counter("server.drops{malformed}")->value(), 1u);
  EXPECT_EQ(registry.family("server.outcome").size(), 2u);
  EXPECT_EQ(ok->value(), 1u);
  EXPECT_EQ(client.received.size(), 2u);

  // Shed: a BUSY reply and a server.shed bump, no outcome. One worker, a
  // one-deep high-water mark and a 1 s service time shed the third of
  // three concurrent LOGIN1s.
  crypto::SecureRandom rng(13);
  auto domain = std::make_shared<services::UserManagerDomain>(
      services::UserManagerConfig{}, crypto::generate_rsa_keypair(rng, 512),
      rng.bytes(32));
  services::UserManager um(domain, nullptr, rng.fork());
  ProcessingModel slow;
  slow.light = 1 * kSecond;
  OverloadPolicy overload;
  overload.workers = 1;
  overload.high_water = 1;
  ServiceNode um_node(net, 3, user_manager_routes(um), registry, slow, overload);
  net.attach(3, util::parse_netaddr("10.0.0.3"), &um_node);
  client.received.clear();
  core::Login1Request login1;
  login1.email = "ghost@x.com";
  login1.client_public_key = crypto::generate_rsa_keypair(rng, 512).pub;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Envelope env;
    env.kind = MsgKind::kLogin1Request;
    env.request_id = id;
    env.payload = login1.encode();
    net.send(1, 3, env.encode());
  }
  sim.run();
  std::uint64_t answered = 0, busy = 0;
  for (const Packet& packet : client.received) {
    const auto env = Envelope::decode(packet.data());
    ASSERT_TRUE(env);
    env->kind == MsgKind::kBusy ? ++busy : ++answered;
  }
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(busy, 1u);
  EXPECT_EQ(registry.find_counter("server.shed{login1-req}")->value(), 1u);
  std::uint64_t login1_outcomes = 0;
  for (const auto& [label, counter] : registry.family("server.outcome")) {
    if (label.rfind("login1-req:", 0) == 0) login1_outcomes += counter->value();
  }
  EXPECT_EQ(login1_outcomes, 2u);
}

TEST(ServiceNodeTest, ProcessingDelayDefersResponse) {
  sim::Simulation sim;
  LinkConfig instant;
  instant.latency.floor = 0;
  instant.latency.median = 1;  // ~zero network
  instant.latency.sigma = 0.01;
  Network net(sim, instant, crypto::SecureRandom(10));
  services::RedirectionManager rm;
  rm.register_domain(0, {util::parse_netaddr("10.0.0.9"), {}});
  rm.assign_user("a@x.com", 0);
  ProcessingModel slow;
  slow.light = 500 * kMillisecond;
  obs::Registry registry;
  ServiceNode node(net, 2, redirection_routes(rm), registry, slow);
  RecordingNode client;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &client);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &node);

  Envelope req;
  req.kind = MsgKind::kRedirectRequest;
  req.request_id = 1;
  req.payload = services::RedirectRequest{"a@x.com"}.encode();
  net.send(1, 2, req.encode());
  sim.run();
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_GE(sim.now(), 500 * kMillisecond);  // the light processing delay
}

TEST(NetworkTest, LatencyCanReorderDatagrams) {
  // High-jitter link: packets may arrive out of send order (the substrate
  // must be order-agnostic; higher layers handle it).
  sim::Simulation sim;
  LinkConfig jittery = fast_link();
  jittery.latency.sigma = 1.5;
  Network net(sim, jittery, crypto::SecureRandom(7));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  for (int i = 0; i < 200; ++i) net.send(1, 2, {static_cast<std::uint8_t>(i)});
  sim.run();
  ASSERT_EQ(b.received.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < b.received.size(); ++i) {
    if (b.received[i].data()[0] < b.received[i - 1].data()[0]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

// --- client timer lifetimes across ungraceful departure ---

DeploymentConfig lifetime_config() {
  DeploymentConfig cfg;
  cfg.seed = 99;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.processing.light = 1 * kMillisecond;
  cfg.processing.heavy = 8 * kMillisecond;
  return cfg;
}

TEST(ClientLifetimeTest, CrashMidLoginFiresNoRetransmitTimers) {
  // Regression: a client crashed with a request in flight must not keep
  // retransmitting from beyond the grave. The retransmit-timeout closure
  // keys off pending_, which leave() clears — so the timer finds nothing.
  Deployment d(lifetime_config());
  d.add_user("a@example.com", "pw");
  AsyncClient& c = d.add_client("a@example.com", "pw", d.geo().region_at(0));
  c.login([](core::DrmError) { FAIL() << "callback fired for a dead session"; });
  d.crash_client(c);  // the login-1 request is still pending

  d.run_for(60 * util::kSecond);  // far past every timeout and retry backoff
  EXPECT_EQ(c.retransmits(), 0u);
}

TEST(ClientLifetimeTest, DestroyedClientTimersAreInert) {
  // Harsher variant: the AsyncClient object itself is destroyed while its
  // auto-renewal timer is armed in the simulation queue. The alive-flag
  // guard must make the orphaned closure a no-op, not a use-after-free.
  Deployment d(lifetime_config());
  d.add_user("a@example.com", "pw");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "news", region);
  d.start_channel_server(1);

  AsyncClient& c = d.add_client("a@example.com", "pw", region);
  ASSERT_EQ(d.run_op(c, login_and_switch(c, 1), 10 * util::kMinute),
            core::DrmError::kOk);
  c.enable_auto_renewal();  // arms a timer minutes in the future

  d.remove_client(c);                // destroys the client object
  d.run_for(30 * util::kMinute);     // the orphaned timers come due: no UAF
}


// --- the transmission layer alone: a Transmitter on a bare Network, with a
// scripted server node ---

constexpr util::NodeId kTxClient = 1;
constexpr util::NodeId kTxServer = 2;
constexpr util::NodeId kTxImpostor = 3;

LinkConfig instant_link() {
  LinkConfig link;
  link.latency.floor = 0;
  link.latency.median = 1;  // ~zero network
  link.latency.sigma = 0.01;
  return link;
}

/// Records every request's arrival time and answers it by running `script`.
class ScriptedServer final : public Node {
 public:
  ScriptedServer(Network& net, util::NodeId self) : net_(net), self_(self) {
    net_.attach(self_, util::parse_netaddr("10.0.0." + std::to_string(self_)),
                this);
  }
  void on_packet(const Packet& packet) override {
    arrivals.push_back(net_.now());
    const auto env = Envelope::decode(packet.data());
    if (env && script) script(*env);
  }
  /// Send `kind` for `request_id` back to the client.
  void reply(MsgKind kind, std::uint64_t request_id, Bytes payload = {}) {
    Envelope env;
    env.kind = kind;
    env.request_id = request_id;
    env.payload = std::move(payload);
    net_.send(self_, kTxClient, env.encode());
  }

  std::function<void(const Envelope&)> script;
  std::vector<util::SimTime> arrivals;

 private:
  Network& net_;
  util::NodeId self_;
};

/// The client end: hands every envelope it receives to the transmitter.
struct TransmitterHost final : Node {
  TransmitterHost(Network& net, Transmitter::Config config)
      : tx(config, kTxClient, net, rng) {
    net.attach(kTxClient, util::parse_netaddr("10.0.0.1"), this);
  }
  void on_packet(const Packet& packet) override {
    if (const auto env = EnvelopeView::decode(packet.data())) {
      tx.on_envelope(packet.from, *env);
    }
  }

  crypto::SecureRandom rng{21};  // declared first: tx draws jitter from it
  Transmitter tx;
};

/// Outcome of one request through the transmitter.
struct TxResult {
  int responses = 0;
  int failures = 0;
  Bytes payload;
  core::DrmError error = core::DrmError::kOk;
  util::SimTime done_at = 0;
};

void send_redirect(Network& net, Transmitter& tx, TxResult& result) {
  tx.send(
      kTxServer, MsgKind::kRedirectRequest, bytes_of("req"),
      MsgKind::kRedirectResponse, core::Round::kLogin1,
      [&net, &result](const EnvelopeView& env) {
        ++result.responses;
        result.payload.assign(env.payload.begin(), env.payload.end());
        result.done_at = net.now();
      },
      [&net, &result](core::DrmError err) {
        ++result.failures;
        result.error = err;
        result.done_at = net.now();
      });
}

TEST(TransmitterTest, BackoffLadderCapsAtMaxTimeout) {
  sim::Simulation sim;
  Network net(sim, instant_link(), crypto::SecureRandom(31));
  ScriptedServer server(net, kTxServer);  // never answers
  Transmitter::Config cfg;
  cfg.request_timeout = 8 * kSecond;
  cfg.max_retries = 5;
  TransmitterHost host(net, cfg);

  TxResult result;
  send_redirect(net, host.tx, result);
  sim.run();

  ASSERT_EQ(result.failures, 1);
  EXPECT_EQ(result.responses, 0);
  EXPECT_EQ(result.error, core::DrmError::kNoCapacity);
  EXPECT_EQ(host.tx.stats().retransmits, 5u);
  EXPECT_EQ(host.tx.stats().timeout_exhaustions, 1u);
  ASSERT_EQ(server.arrivals.size(), 6u);
  // Waits of 8, 16, then 32 s and beyond capped at 30 s, each stretched by
  // at most the jitter; the last one is the final timeout before failing.
  std::vector<util::SimTime> waits;
  for (std::size_t i = 1; i < server.arrivals.size(); ++i) {
    waits.push_back(server.arrivals[i] - server.arrivals[i - 1]);
  }
  waits.push_back(result.done_at - server.arrivals.back());
  util::SimTime base = cfg.request_timeout;
  for (const util::SimTime wait : waits) {
    const util::SimTime expected = std::min(base, Transmitter::kMaxTimeout);
    EXPECT_GE(wait, expected - kMillisecond);
    EXPECT_LE(wait, static_cast<util::SimTime>(
                        expected * (1 + Transmitter::kJitter)) + kMillisecond);
    base *= 2;
  }
  ASSERT_EQ(host.tx.feedback_log().size(), 1u);
  EXPECT_FALSE(host.tx.feedback_log()[0].success);
}

TEST(TransmitterTest, WrongKindFromRightNodeIgnoredRetransmitCompletes) {
  sim::Simulation sim;
  Network net(sim, instant_link(), crypto::SecureRandom(32));
  ScriptedServer server(net, kTxServer);
  server.script = [&server](const Envelope& env) {
    // First attempt: a response of the wrong kind; the retransmit gets the
    // right one.
    server.reply(server.arrivals.size() == 1 ? MsgKind::kLogin1Response
                                             : MsgKind::kRedirectResponse,
                 env.request_id, bytes_of("redirect"));
  };
  Transmitter::Config cfg;
  cfg.request_timeout = 1 * kSecond;
  cfg.max_retries = 2;
  TransmitterHost host(net, cfg);

  TxResult result;
  send_redirect(net, host.tx, result);
  sim.run();

  EXPECT_EQ(result.responses, 1);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(result.payload, bytes_of("redirect"));
  EXPECT_EQ(server.arrivals.size(), 2u);
  EXPECT_EQ(host.tx.stats().retransmits, 1u);
  ASSERT_EQ(host.tx.feedback_log().size(), 1u);
  EXPECT_TRUE(host.tx.feedback_log()[0].success);
}

TEST(TransmitterTest, ResponseFromAnotherNodeIgnored) {
  // Request ids count up from 1 in every client, so any node can name one.
  // Only the node the request went to may answer it.
  sim::Simulation sim;
  Network net(sim, instant_link(), crypto::SecureRandom(33));
  ScriptedServer server(net, kTxServer);
  server.script = [&server](const Envelope& env) {
    if (server.arrivals.size() > 1) {  // silent on the first attempt
      server.reply(MsgKind::kRedirectResponse, env.request_id, bytes_of("real"));
    }
  };
  ScriptedServer impostor(net, kTxImpostor);
  Transmitter::Config cfg;
  cfg.request_timeout = 1 * kSecond;
  cfg.max_retries = 2;
  TransmitterHost host(net, cfg);

  TxResult result;
  send_redirect(net, host.tx, result);
  impostor.reply(MsgKind::kRedirectResponse, 1, bytes_of("forged"));
  sim.run();

  EXPECT_EQ(result.responses, 1);
  EXPECT_EQ(result.payload, bytes_of("real"));
  EXPECT_EQ(host.tx.stats().retransmits, 1u);
}

TEST(TransmitterTest, NinthBusyFailsRequestWithOutcomeBusy) {
  sim::Simulation sim;
  Network net(sim, instant_link(), crypto::SecureRandom(34));
  ScriptedServer server(net, kTxServer);
  server.script = [&server](const Envelope& env) {
    BusyPayload busy;
    busy.retry_after = 100 * kMillisecond;
    server.reply(MsgKind::kBusy, env.request_id, busy.encode());
  };
  TransmitterHost host(net, Transmitter::Config{});
  obs::Tracer tracer;
  host.tx.bind_observability(nullptr, &tracer, nullptr);

  TxResult result;
  send_redirect(net, host.tx, result);
  sim.run();

  ASSERT_EQ(result.failures, 1);
  EXPECT_EQ(result.error, core::DrmError::kNoCapacity);
  EXPECT_EQ(server.arrivals.size(),
            static_cast<std::size_t>(Transmitter::kBusyMaxDefers + 1));
  EXPECT_EQ(host.tx.stats().busy_received,
            static_cast<std::uint64_t>(Transmitter::kBusyMaxDefers + 1));
  EXPECT_EQ(host.tx.stats().busy_deferred_resends,
            static_cast<std::uint64_t>(Transmitter::kBusyMaxDefers));
  EXPECT_EQ(host.tx.stats().retransmits, 0u);
  EXPECT_EQ(host.tx.stats().timeout_exhaustions, 0u);
  EXPECT_EQ(host.tx.stats().retry_budget_exhaustions, 0u);
  const auto request = std::find_if(
      tracer.spans().begin(), tracer.spans().end(),
      [](const obs::Span& span) { return span.name == "LOGIN1"; });
  ASSERT_NE(request, tracer.spans().end());
  EXPECT_FALSE(request->ok);
  EXPECT_NE(std::find(request->tags.begin(), request->tags.end(),
                      std::make_pair(std::string("outcome"), std::string("busy"))),
            request->tags.end());
}

TEST(TransmitterTest, CancelDropsPendingWithoutCallbacks) {
  sim::Simulation sim;
  Network net(sim, instant_link(), crypto::SecureRandom(35));
  ScriptedServer server(net, kTxServer);
  server.script = [&server](const Envelope& env) {
    server.reply(MsgKind::kRedirectResponse, env.request_id);
  };
  Transmitter::Config cfg;
  cfg.request_timeout = 1 * kSecond;
  TransmitterHost host(net, cfg);

  TxResult result;
  send_redirect(net, host.tx, result);
  host.tx.cancel();
  sim.run();  // the late response and every timer find nothing

  EXPECT_EQ(result.responses, 0);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(server.arrivals.size(), 1u);
  EXPECT_EQ(host.tx.stats().retransmits, 0u);
  EXPECT_TRUE(host.tx.feedback_log().empty());
}

/// A SimTransport that names its timers and logs release() calls, to check
/// which timers the transmitter gives back.
class ReleaseLog final : public transport::Transport {
 public:
  explicit ReleaseLog(sim::Simulation& sim) : inner_(sim) {}
  util::SimTime now() const override { return inner_.now(); }
  transport::TimerId post(std::size_t group, util::SimTime delay,
                          transport::Task task) override {
    inner_.post(group, delay, std::move(task));
    if (delay <= 0) return {};
    posted.push_back({now() + delay, posted.size() + 1});
    return posted.back();
  }
  void release(std::size_t, transport::TimerId id) override {
    released.push_back(id);
  }
  std::size_t groups() const override { return 1; }
  bool live() const override { return false; }
  void run_until(util::SimTime t) override { inner_.run_until(t); }
  void shutdown() override {}

  std::vector<transport::TimerId> posted;
  std::vector<transport::TimerId> released;

 private:
  transport::SimTransport inner_;
};

TEST(TransmitterTest, AnsweredRequestReleasesItsTimeout) {
  // Timeouts outlive answered requests unless released: at a high request
  // rate the live loop's timer map would hold seconds of dead closures.
  sim::Simulation sim;
  ReleaseLog log(sim);
  Network net(log, instant_link(), crypto::SecureRandom(36));
  ScriptedServer server(net, kTxServer);
  server.script = [&server](const Envelope& env) {
    server.reply(MsgKind::kRedirectResponse, env.request_id);
  };
  Transmitter::Config cfg;
  cfg.request_timeout = 1 * kSecond;
  TransmitterHost host(net, cfg);

  TxResult result;
  send_redirect(net, host.tx, result);
  sim.run();

  ASSERT_EQ(result.responses, 1);
  ASSERT_EQ(log.released.size(), 1u);
  // The released timer is the request's timeout, not a packet delivery.
  EXPECT_NE(std::find(log.posted.begin(), log.posted.end(), log.released[0]),
            log.posted.end());
  EXPECT_GE(log.released[0].when, cfg.request_timeout);
}

TEST(TransmitterTest, BusyAndCancelReleaseTheArmedTimeout) {
  sim::Simulation sim;
  ReleaseLog log(sim);
  Network net(log, instant_link(), crypto::SecureRandom(37));
  ScriptedServer server(net, kTxServer);
  server.script = [&server](const Envelope& env) {
    if (server.arrivals.size() == 1) {
      BusyPayload busy;
      busy.retry_after = 100 * kMillisecond;
      server.reply(MsgKind::kBusy, env.request_id, busy.encode());
    }  // silent on the deferred resend
  };
  Transmitter::Config cfg;
  cfg.request_timeout = 1 * kSecond;
  TransmitterHost host(net, cfg);

  TxResult result;
  send_redirect(net, host.tx, result);
  sim.run_until(500 * kMillisecond);  // BUSY seen, resend armed a new timeout
  ASSERT_EQ(server.arrivals.size(), 2u);
  ASSERT_EQ(log.released.size(), 1u);  // the first attempt's timeout
  host.tx.cancel();
  ASSERT_EQ(log.released.size(), 2u);  // the resend's timeout
  EXPECT_NE(log.released[0], log.released[1]);
  EXPECT_EQ(result.responses + result.failures, 0);
}

TEST(ClientLifetimeTest, ForgedBusyFromAnotherNodeCannotFailLogin) {
  // Regression: a BUSY was accepted from any node. Nine forged ones naming
  // the client's first request ids failed its login with kNoCapacity.
  Deployment d(lifetime_config());
  d.add_user("a@example.com", "pw");
  AsyncClient& c = d.add_client("a@example.com", "pw", d.geo().region_at(0));
  constexpr util::NodeId kForger = 7777777;
  RecordingNode forger;
  d.network().attach(kForger, util::parse_netaddr("10.250.0.1"), &forger);
  // Forgeries land well before any genuine response can.
  d.network().set_link(kForger, instant_link());
  d.network().set_link(c.config().node, instant_link());

  BusyPayload busy;
  busy.retry_after = BusyPayload::kMaxRetryAfter;
  const auto op = [&](AsyncClient::Callback done) {
    c.login(std::move(done));
    for (int i = 0; i <= Transmitter::kBusyMaxDefers; ++i) {
      for (std::uint64_t id = 1; id <= 3; ++id) {
        Envelope env;
        env.kind = MsgKind::kBusy;
        env.request_id = id;
        env.payload = busy.encode();
        d.network().send(kForger, c.config().node, env.encode());
      }
    }
  };
  EXPECT_EQ(d.run_op(c, op, 2 * util::kMinute), core::DrmError::kOk);
  EXPECT_EQ(c.busy_received(), 0u);
  EXPECT_TRUE(c.logged_in());
}

}  // namespace
}  // namespace p2pdrm::net
