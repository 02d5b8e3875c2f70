// Protocol-operation microbenchmarks: what one ticket issue, verification,
// policy evaluation, or full protocol exchange costs at the managers and
// peers. The per-request means feed sim::ServiceCosts.
#include <benchmark/benchmark.h>

#include "core/secure_channel.h"
#include "net/deployment.h"

using namespace p2pdrm;

namespace {

/// Shared simulated deployment with one user, a channel, and a logged-in,
/// watching client. Links and processing cost nothing, so virtual time
/// stands still (no ticket ever expires mid-run) and a full round measures
/// the real handlers, crypto, envelope encoding and sim event dispatch.
struct Fixture {
  Fixture() : d(make_config()) {
    d.add_user("bench@example.com", "pw");
    region = d.geo().region_at(0);
    d.add_regional_channel(1, "bench-channel", region);
    d.start_channel_server(1);
    client = &d.add_client("bench@example.com", "pw", region);
    if (login() != core::DrmError::kOk) std::abort();
    if (switch_channel() != core::DrmError::kOk) std::abort();
  }

  static net::DeploymentConfig make_config() {
    net::DeploymentConfig cfg;
    cfg.seed = 555;
    cfg.key_bits = 1024;  // production-class key size for realistic costs
    cfg.default_link.latency.floor = 0;
    cfg.default_link.latency.median = 1;  // 1 us RTT: both halves round to 0
    cfg.default_link.latency.sigma = 0;
    return cfg;
  }

  std::optional<core::DrmError> login() {
    return d.run_op(*client, [this](auto cb) { client->login(std::move(cb)); },
                    util::kMinute);
  }
  std::optional<core::DrmError> switch_channel() {
    return d.run_op(
        *client, [this](auto cb) { client->switch_channel(1, std::move(cb)); },
        util::kMinute);
  }

  net::Deployment d;
  geo::RegionId region = 0;
  net::AsyncClient* client = nullptr;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_FullLogin(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    if (f.login() != core::DrmError::kOk) state.SkipWithError("login failed");
  }
}
BENCHMARK(BM_FullLogin)->Unit(benchmark::kMillisecond);

void BM_FullChannelSwitch(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    if (f.switch_channel() != core::DrmError::kOk) state.SkipWithError("switch failed");
  }
}
BENCHMARK(BM_FullChannelSwitch)->Unit(benchmark::kMillisecond);

void BM_UserTicketVerify(benchmark::State& state) {
  Fixture& f = fixture();
  const core::SignedUserTicket& ticket = *f.client->user_ticket();
  const crypto::RsaPublicKey& key = f.d.um_domain().keys.pub;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ticket.verify(key));
  }
}
BENCHMARK(BM_UserTicketVerify);

void BM_UserTicketDecode(benchmark::State& state) {
  Fixture& f = fixture();
  const util::Bytes wire = f.client->user_ticket()->encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SignedUserTicket::decode(wire));
  }
}
BENCHMARK(BM_UserTicketDecode);

void BM_ChannelTicketIssue(benchmark::State& state) {
  // The Channel Manager's SWITCH2 handler end to end (validation, policy
  // evaluation, signing, logging) — the cost that sizes a CM farm.
  Fixture& f = fixture();
  const util::Bytes user_ticket = f.client->user_ticket()->encode();
  core::Switch1Request r1;
  r1.user_ticket = user_ticket;
  r1.channel_id = 1;
  for (auto _ : state) {
    const core::Switch1Response resp1 =
        f.d.channel_manager(0).handle_switch1(r1, f.client->config().addr, f.d.now());
    benchmark::DoNotOptimize(resp1);
    if (resp1.error != core::DrmError::kOk) state.SkipWithError("switch1 failed");
  }
}
BENCHMARK(BM_ChannelTicketIssue)->Unit(benchmark::kMicrosecond);

void BM_PolicyEvaluation(benchmark::State& state) {
  Fixture& f = fixture();
  const core::ChannelRecord* channel = f.d.policy_manager().find_channel(1);
  const core::AttributeSet& attrs = f.client->user_ticket()->ticket.attributes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_policies(*channel, attrs, 0));
  }
}
BENCHMARK(BM_PolicyEvaluation);

void BM_PolicyEvaluationManyPolicies(benchmark::State& state) {
  // A channel with a deep policy stack (per-program blackouts, tiers, ...).
  Fixture& f = fixture();
  core::ChannelRecord channel = *f.d.policy_manager().find_channel(1);
  for (int i = 0; i < state.range(0); ++i) {
    core::Policy p;
    p.priority = 60 + static_cast<std::uint32_t>(i);
    p.terms.push_back({core::kAttrSubscription,
                       core::AttrValue::of("tier-" + std::to_string(i))});
    p.action = core::PolicyAction::kReject;
    channel.policies.push_back(p);
    core::Attribute a;
    a.name = core::kAttrSubscription;
    a.value = core::AttrValue::of("tier-" + std::to_string(i));
    channel.attributes.add(a);
  }
  const core::AttributeSet& attrs = f.client->user_ticket()->ticket.attributes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_policies(channel, attrs, 0));
  }
}
BENCHMARK(BM_PolicyEvaluationManyPolicies)->Arg(10)->Arg(100);

void BM_PeerJoinHandshake(benchmark::State& state) {
  // Target-peer side of JOIN: ticket verify + session key mint + RSA
  // encrypt + content-key wrap. This is the paper's "delegated
  // authorization" cost at peers.
  Fixture& f = fixture();
  crypto::SecureRandom rng(1);
  const crypto::RsaKeyPair cm_keys = crypto::generate_rsa_keypair(rng, 1024);
  const crypto::RsaKeyPair client_keys = crypto::generate_rsa_keypair(rng, 1024);
  (void)f;

  p2p::PeerConfig cfg;
  cfg.node = 1;
  cfg.addr = util::NetAddr{0x0a000001};
  cfg.channel = 1;
  cfg.capacity = 1u << 30;  // never refuse
  p2p::Peer target(cfg, client_keys, cm_keys.pub, rng.fork());
  target.install_key(core::generate_content_key(rng, 0, 0));

  core::ChannelTicket t;
  t.user_in = 9;
  t.channel_id = 1;
  t.client_public_key = client_keys.pub;
  t.net_addr = util::NetAddr{0x0a000002};
  t.expiry_time = 365 * util::kDay;
  const auto ticket = core::SignedChannelTicket::sign(t, cm_keys.priv);
  core::JoinRequest req;
  req.channel_ticket = ticket.encode();

  util::NodeId joiner = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        target.handle_join(req, t.net_addr, joiner++, 0));
  }
}
BENCHMARK(BM_PeerJoinHandshake)->Unit(benchmark::kMicrosecond);

void BM_KeyRelayHop(benchmark::State& state) {
  // One overlay hop of content-key relay: unwrap + re-wrap per child.
  crypto::SecureRandom rng(2);
  const core::SessionKey parent_link = core::generate_session_key(rng);
  const core::ContentKey key = core::generate_content_key(rng, 1, 0);
  const core::SessionKey child_link = core::generate_session_key(rng);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const util::Bytes blob = core::wrap_content_key(key, parent_link, nonce++);
    const auto unwrapped = core::unwrap_content_key(blob, parent_link);
    benchmark::DoNotOptimize(core::wrap_content_key(*unwrapped, child_link, nonce++));
  }
}
BENCHMARK(BM_KeyRelayHop);

void BM_SecureChannelHandshake(benchmark::State& state) {
  // Cost of enforcing the SSL-like protocol for infrastructure traffic
  // (§IV-G1): one RSA encrypt client-side + one RSA decrypt server-side.
  crypto::SecureRandom rng(4);
  const crypto::RsaKeyPair server = crypto::generate_rsa_keypair(rng, 1024);
  for (auto _ : state) {
    core::ClientHandshake ch = core::secure_channel_initiate(server.pub, rng);
    benchmark::DoNotOptimize(core::secure_channel_accept(ch.hello, server.priv));
  }
}
BENCHMARK(BM_SecureChannelHandshake)->Unit(benchmark::kMillisecond);

void BM_SecureChannelSealOpen(benchmark::State& state) {
  crypto::SecureRandom rng(5);
  const crypto::RsaKeyPair server = crypto::generate_rsa_keypair(rng, 1024);
  core::ClientHandshake ch = core::secure_channel_initiate(server.pub, rng);
  auto session = core::secure_channel_accept(ch.hello, server.priv);
  const util::Bytes msg = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const util::Bytes record = ch.session.seal(msg);
    benchmark::DoNotOptimize(session->open(record));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SecureChannelSealOpen)->Arg(256)->Arg(4096);

void BM_AttestationChecksum(benchmark::State& state) {
  crypto::SecureRandom rng(3);
  const util::Bytes binary = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const core::ChecksumParams params{0, static_cast<std::uint32_t>(state.range(0)), 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_attestation_checksum(binary, params));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AttestationChecksum)->Arg(65536)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
