// Adversary subsystem tests: plan text-format parsing and round-trips, the
// deterministic replay-probe chain on the sim backend, and the
// credential-sharing regression on the real thread transport — two clients
// on one account from different regions, where the ViewingLog's
// single-session rule must leave exactly one survivor.
#include <gtest/gtest.h>

#include <stdexcept>

#include "adversary/abuse_report.h"
#include "adversary/adversary_engine.h"
#include "adversary/adversary_plan.h"
#include "client_ops.h"
#include "services/catalog.h"

namespace p2pdrm::adversary {
namespace {

using core::DrmError;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;

// ---------------------------------------------------------------------------
// Plan parsing

TEST(AdversaryPlanTest, ParsesEveryVerb) {
  const AdversaryPlan plan = AdversaryPlan::parse(
      "# comment, then a blank line\n"
      "\n"
      "1m   replay-probe  victim@abuse.example pw-victim 1\n"
      "2m   fuzz          30s 0.05 10.254.0.0/16\n"
      "3m   rogue-peer    1 2 garbage\n"
      "4m   sybil         1 64 10.66.0.0/16 4\n"
      "5m   cred-share    shared@abuse.example pw-shared 1 3 8m\n");
  ASSERT_EQ(plan.size(), 5u);
  const auto& ev = plan.events();

  EXPECT_EQ(ev[0].kind, AttackKind::kReplayProbe);
  EXPECT_EQ(ev[0].at, 1 * kMinute);
  EXPECT_EQ(ev[0].email, "victim@abuse.example");
  EXPECT_EQ(ev[0].password, "pw-victim");
  EXPECT_EQ(ev[0].channel, 1u);

  EXPECT_EQ(ev[1].kind, AttackKind::kFuzz);
  EXPECT_EQ(ev[1].duration, 30 * kSecond);
  EXPECT_DOUBLE_EQ(ev[1].rate, 0.05);

  EXPECT_EQ(ev[2].kind, AttackKind::kRoguePeer);
  EXPECT_EQ(ev[2].count, 2u);
  EXPECT_EQ(ev[2].mode, RogueMode::kGarbageKeys);

  EXPECT_EQ(ev[3].kind, AttackKind::kSybilFlood);
  EXPECT_EQ(ev[3].count, 64u);
  EXPECT_EQ(ev[3].sources, 4u);

  EXPECT_EQ(ev[4].kind, AttackKind::kCredShare);
  EXPECT_EQ(ev[4].count, 3u);
  EXPECT_EQ(ev[4].duration, 8 * kMinute);
}

TEST(AdversaryPlanTest, EventsSortedByTimeStable) {
  AdversaryPlan plan;
  plan.sybil_flood(5 * kMinute, 1, 8, fault::AddrBlock::parse("10.0.0.0/8"));
  plan.replay_probe(1 * kMinute, "a@b.c", "pw", 1);
  plan.rogue_peer(1 * kMinute, 1, 2);  // same time: insertion order kept
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, AttackKind::kReplayProbe);
  EXPECT_EQ(plan.events()[1].kind, AttackKind::kRoguePeer);
  EXPECT_EQ(plan.events()[2].kind, AttackKind::kSybilFlood);
}

TEST(AdversaryPlanTest, TextRoundTrip) {
  AdversaryPlan plan;
  plan.replay_probe(30 * kSecond, "victim@abuse.example", "pw-victim", 1);
  plan.fuzz(2 * kMinute, 90 * kSecond, fault::AddrBlock::parse("*"), 0.25);
  plan.rogue_peer(1 * kMinute, 1, 2, RogueMode::kWithholdKeys);
  plan.cred_share(210 * kSecond, "shared@abuse.example", "pw-shared", 1, 3,
                  8 * kMinute);
  plan.sybil_flood(5 * kMinute, 1, 64, fault::AddrBlock::parse("10.66.0.0/16"),
                   4);
  const std::string text = plan.to_string();
  const AdversaryPlan back = AdversaryPlan::parse(text);
  EXPECT_EQ(back.to_string(), text);
  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back.events()[i].to_string(), plan.events()[i].to_string()) << i;
  }
}

TEST(AdversaryPlanTest, ParseErrorsCarryLineNumbers) {
  // Unknown verb.
  try {
    AdversaryPlan::parse("1m warp-core 1\n");
    FAIL() << "unknown verb accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  // Malformed time on line 2.
  try {
    AdversaryPlan::parse("# header\nsoon fuzz 30s 0.1 *\n");
    FAIL() << "bad time accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // Missing arguments.
  EXPECT_THROW(AdversaryPlan::parse("1m replay-probe onlyemail\n"),
               std::invalid_argument);
  EXPECT_THROW(AdversaryPlan::parse("1m cred-share a@b.c pw 1\n"),
               std::invalid_argument);
  // Out-of-range fuzz rate.
  EXPECT_THROW(AdversaryPlan::parse("1m fuzz 30s 1.5 *\n"),
               std::invalid_argument);
  EXPECT_THROW(AdversaryPlan::parse("1m fuzz 30s -0.1 *\n"),
               std::invalid_argument);
  // Bad rogue mode.
  EXPECT_THROW(AdversaryPlan::parse("1m rogue-peer 1 2 polite\n"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deterministic replay-probe chain on the sim backend

TEST(AdversaryEngineTest, ReplayProbeChainAllRejectedOnSim) {
  net::DeploymentConfig cfg;
  cfg.seed = 7;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  net::Deployment d(cfg);
  d.add_regional_channel(1, "news", d.geo().region_at(0));
  d.start_channel_server(1);

  AdversaryPlan plan;
  plan.replay_probe(10 * kSecond, "victim@abuse.example", "pw-victim", 1);
  AdversaryEngineConfig ecfg;
  ecfg.seed = 0xab05ed;
  AdversaryEngine engine(d, std::move(plan), ecfg);
  engine.arm();
  d.run_until(2 * kMinute);

  // All five protocol rounds probed; every forgery got an explicit refusal.
  EXPECT_GE(engine.probes_sent(), 8u);
  EXPECT_EQ(engine.probes_accepted(), 0u);
  EXPECT_EQ(engine.probes_timed_out(), 0u);
  EXPECT_EQ(engine.probes_rejected(), engine.probes_sent());

  const AbuseReport rep = AbuseReport::collect(d, engine, 0xab05ed);
  EXPECT_TRUE(rep.gate_no_forgery);
  EXPECT_EQ(rep.transport, "sim");
  EXPECT_NE(rep.to_json().find("\"schema\": \"p2pdrm.abuse.v1\""),
            std::string::npos);
}

TEST(AdversaryEngineTest, ProbeOutcomesDeterministicAcrossRuns) {
  const auto run = [] {
    net::DeploymentConfig cfg;
    cfg.seed = 7;
    cfg.default_link.latency.floor = 10 * kMillisecond;
    cfg.default_link.latency.median = 40 * kMillisecond;
    net::Deployment d(cfg);
    d.add_regional_channel(1, "news", d.geo().region_at(0));
    d.start_channel_server(1);
    AdversaryPlan plan;
    plan.replay_probe(10 * kSecond, "victim@abuse.example", "pw-victim", 1);
    AdversaryEngineConfig ecfg;
    ecfg.seed = 0xab05ed;
    AdversaryEngine engine(d, std::move(plan), ecfg);
    engine.arm();
    d.run_until(2 * kMinute);
    return AbuseReport::collect(d, engine, 0xab05ed).to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(AdversaryEngineTest, AccessorsReadTheAbuseCounters) {
  net::DeploymentConfig cfg;
  cfg.seed = 7;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  net::Deployment d(cfg);
  d.add_regional_channel(1, "news", d.geo().region_at(0));
  d.start_channel_server(1);

  AdversaryPlan plan;
  plan.replay_probe(10 * kSecond, "victim@abuse.example", "pw-victim", 1);
  plan.fuzz(2 * kMinute, 3 * kMinute, fault::AddrBlock::parse("*"), 0.5);
  plan.sybil_flood(30 * kSecond, 1, 16, fault::AddrBlock::parse("10.66.0.0/16"), 2);
  plan.cred_share(40 * kSecond, "shared@abuse.example", "pw-shared", 1, 2,
                  8 * kMinute);
  AdversaryEngine engine(d, std::move(plan));
  engine.arm();
  d.run_until(10 * kMinute);

  // One store: every accessor is its "abuse.*" registry counter.
  const obs::Registry& reg = d.registry();
  const auto counter = [&reg](const char* name) {
    const obs::Counter* c = reg.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_EQ(engine.probes_sent(), counter("abuse.probes.sent"));
  EXPECT_EQ(engine.probes_accepted(), counter("abuse.probes.accepted"));
  EXPECT_EQ(engine.probes_rejected(), counter("abuse.probes.rejected"));
  EXPECT_EQ(engine.probes_timed_out(), counter("abuse.probes.timeout"));
  EXPECT_EQ(engine.fuzz_mutations(), counter("abuse.fuzz.mutations"));
  EXPECT_EQ(engine.sybil_attempted(), counter("abuse.sybil.attempted"));
  EXPECT_EQ(engine.sybil_admitted(), counter("abuse.sybil.admitted"));
  EXPECT_EQ(engine.sybil_rejected(), counter("abuse.sybil.rejected"));
  EXPECT_EQ(engine.ring_logins_ok(), counter("abuse.ring.logins_ok"));
  EXPECT_EQ(engine.ring_switches_ok(), counter("abuse.ring.switches_ok"));
  EXPECT_EQ(engine.ring_renewals_ok(), counter("abuse.ring.survivors"));
  EXPECT_EQ(engine.ring_renewals_refused(), counter("abuse.ring.evictions"));

  // And the run exercised them.
  EXPECT_GE(engine.probes_sent(), 8u);
  EXPECT_GT(engine.fuzz_mutations(), 0u);
  EXPECT_EQ(engine.sybil_attempted(), 16u);
  EXPECT_EQ(engine.sybil_admitted() + engine.sybil_rejected(), 16u);
  EXPECT_EQ(engine.ring_logins_ok(), 2u);
  // The channel is regional: only the member in its region is admitted.
  EXPECT_EQ(engine.ring_switches_ok(), 1u);
  EXPECT_EQ(engine.ring_renewals_ok() + engine.ring_renewals_refused(), 1u);
}

// ---------------------------------------------------------------------------
// Credential-sharing regression on the thread transport (§IV-D)

/// A channel both test regions may watch (each accept policy needs a
/// matching channel attribute to be grounded).
core::ChannelRecord two_region_channel(const net::Deployment& d) {
  core::ChannelRecord rec =
      services::make_regional_channel(1, "shared-live", d.geo().region_at(0));
  const geo::RegionId other = d.geo().region_at(1);
  core::Attribute attr;
  attr.name = core::kAttrRegion;
  attr.value = core::AttrValue::of_number(other);
  rec.attributes.add(std::move(attr));
  core::Policy accept;
  accept.priority = 50;
  accept.terms.push_back({core::kAttrRegion, core::AttrValue::of_number(other)});
  accept.action = core::PolicyAction::kAccept;
  rec.policies.push_back(std::move(accept));
  return rec;
}

TEST(AdversaryCredShareTest, SecondSessionEvictsFirstOnThreadTransport) {
  net::DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = 2;
  cfg.default_link.latency.floor = 1 * kMillisecond;
  cfg.default_link.latency.median = 3 * kMillisecond;
  cfg.request_timeout = 300 * kMillisecond;
  cfg.max_retries = 6;
  // Renewal window spans the whole ticket life so the renewals below are
  // timely; what must decide them is the single-session rule alone.
  cfg.cm.ticket_lifetime = 30 * kSecond;
  cfg.cm.renewal_window = 30 * kSecond;
  net::Deployment d(cfg);

  d.add_user("shared@abuse.example", "pw-shared");
  d.policy_manager().add_channel(two_region_channel(d), d.now());
  d.start_channel_server(1);

  // Same account, two machines, two regions — the paper's password-sharing
  // scenario.
  net::AsyncClient& first =
      d.add_client("shared@abuse.example", "pw-shared", d.geo().region_at(0));
  net::AsyncClient& second =
      d.add_client("shared@abuse.example", "pw-shared", d.geo().region_at(1));

  // Each op runs on its client's own event loop (the live-transport control
  // rule); run_op waits for the result.
  ASSERT_EQ(net::login(d, first), DrmError::kOk);
  ASSERT_EQ(net::switch_to(d, first, 1), DrmError::kOk);
  const util::UserIN user_in = first.user_ticket()->ticket.user_in;

  // The second session starts while the first is still watching.
  ASSERT_EQ(net::login(d, second), DrmError::kOk);
  ASSERT_EQ(net::switch_to(d, second, 1), DrmError::kOk);

  // Renewal is the adjudication point: the journal's latest fresh-issue
  // entry now belongs to the second session, so the first is evicted and
  // the second survives. Exactly one of the two renews.
  EXPECT_EQ(net::renew(d, first), DrmError::kRenewalRefused);
  EXPECT_EQ(net::renew(d, second), DrmError::kOk);

  d.transport().shutdown();

  // The ViewingLog journaled both fresh issues plus the surviving renewal,
  // and its latest fresh-issue entry — the eviction evidence — is the
  // second session's address.
  std::size_t fresh = 0, renewals = 0;
  const services::ViewingLog::Entry* latest = nullptr;
  for (std::size_t p = 0; p < d.partition_count(); ++p) {
    const services::ViewingLog& log = d.cm_partition(static_cast<std::uint32_t>(p)).log;
    for (const services::ViewingLog::Entry& e : log.audit_trail()) {
      if (e.user_in != user_in) continue;
      e.renewal ? ++renewals : ++fresh;
    }
    if (const auto* e = log.latest(user_in, 1)) latest = e;
  }
  EXPECT_EQ(fresh, 2u);     // one per session start
  EXPECT_EQ(renewals, 1u);  // only the survivor's renewal was journaled
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->addr, second.config().addr);
  EXPECT_NE(latest->addr, first.config().addr);
}

}  // namespace
}  // namespace p2pdrm::adversary
