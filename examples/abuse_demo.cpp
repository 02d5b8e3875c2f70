// Abuse demo: the adversarial survival suite. One AdversaryPlan throws all
// five attack classes at a provisioned deployment — ticket replay/forgery
// probes across every protocol round, a seeded wire fuzzer, rogue overlay
// parents, a Sybil flood at the tracker, and a credential-sharing ring —
// and the run exits nonzero unless every defense held:
//
//   * zero successful forgeries (no probe was ever granted a ticket or a
//     join),
//   * zero dual sessions (the ViewingLog's single-session rule leaves at
//     most one ring survivor; the rest are evicted at renewal),
//   * bounded collateral damage (every honest client still holds its
//     Channel Ticket when the dust settles),
//   * byte-identical AbuseReport across two runs of the same (seed, plan)
//     on the sim backend — the attacks themselves are deterministic.
//
//   ./abuse_demo                  # built-in schedule, sim transport
//   ./abuse_demo my-plan.txt      # your own (see src/adversary/adversary_plan.h)
//   ./abuse_demo --transport=thread
//                                 # the same five attacks against the
//                                 # multithreaded live transport: real event
//                                 # loops, wall-clock timers; gates on the
//                                 # invariants only (no byte-compare)
//   ./abuse_demo --abuse-out=abuse.json
//                                 # write the p2pdrm.abuse.v1 artifact
//                                 # (P2PDRM_ABUSE_OUT=<path> does the same)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "adversary/abuse_report.h"
#include "adversary/adversary_engine.h"
#include "adversary/adversary_plan.h"
#include "net/deployment.h"
#include "services/catalog.h"

using namespace p2pdrm;

namespace {

constexpr util::ChannelId kChannel = 1;
constexpr std::size_t kViewers = 6;

bool gate(bool ok, const char* what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

/// The thread-transport schedule is wall-clock and assumes the host keeps
/// up. Under heavy slowdown (sanitizer builds, loaded CI runners) every
/// deadline can be stretched uniformly with P2PDRM_LIVE_TIME_SCALE=<n>;
/// relative ordering — and therefore the scenario — is unchanged. The sim
/// clock is virtual and never needs headroom, so the knob only touches
/// `live` timings.
util::SimTime live_scale() {
  static const util::SimTime scale = [] {
    const char* env = std::getenv("P2PDRM_LIVE_TIME_SCALE");
    if (env == nullptr) return util::SimTime{1};
    const long v = std::strtol(env, nullptr, 10);
    return v > 1 ? static_cast<util::SimTime>(v) : util::SimTime{1};
  }();
  return scale;
}

/// A channel every geo region may watch: the cred-share ring logs in from
/// different regions on purpose (the paper's sharing scenario is
/// cross-machine, often cross-country), so the channel must not be the
/// thing that locks them out. Each accept policy needs a matching channel
/// attribute to be grounded (see core/policy.h).
core::ChannelRecord make_global_channel(const net::Deployment& d) {
  core::ChannelRecord rec =
      services::make_regional_channel(kChannel, "live-global", d.geo().region_at(0));
  for (int i = 1; i < d.geo().num_regions(); ++i) {
    const geo::RegionId region = d.geo().region_at(i);
    core::Attribute attr;
    attr.name = core::kAttrRegion;
    attr.value = core::AttrValue::of_number(region);
    rec.attributes.add(std::move(attr));
    core::Policy accept;
    accept.priority = 50;
    accept.terms.push_back({core::kAttrRegion, core::AttrValue::of_number(region)});
    accept.action = core::PolicyAction::kAccept;
    rec.policies.push_back(std::move(accept));
  }
  return rec;
}

/// The built-in schedule. Ordering matters: the rogue parents arrive before
/// the late viewer (so its join walk meets them), the fuzz window covers
/// that viewer's retried rounds (so corrupted requests reach real service
/// nodes and the malformed-drop accounting), the ring joins BEFORE the
/// Sybil flood pollutes the tracker with unattached identities (a single
/// candidate timeout aborts a whole join), and the flood itself lands last
/// — its damage is tracker state, not in-flight rounds. Sim timings are
/// generous (the default 10-minute Channel Ticket with a 3-minute renewal
/// window adjudicates the ring at +8m); the thread-transport variant
/// compresses everything to wall-clock seconds against a 12s ticket / 6s
/// window.
adversary::AdversaryPlan built_in_plan(bool live) {
  adversary::AdversaryPlan plan;
  const util::SimTime s = live ? live_scale() * util::kSecond : util::kMinute;
  plan.replay_probe(1 * s / 2, "victim@abuse.example", "pw-victim", kChannel);
  plan.rogue_peer(1 * s, kChannel, 2, adversary::RogueMode::kGarbageKeys);
  plan.fuzz(2 * s, live ? 4 * s : 90 * util::kSecond,
            fault::AddrBlock::parse("*"), live ? 0.2 : 0.25);
  plan.cred_share(live ? 7 * s : 210 * util::kSecond,
                  "shared@abuse.example", "pw-shared", kChannel, 3,
                  8 * s);
  plan.sybil_flood(live ? live_scale() * 9500 * util::kMillisecond
                        : 5 * util::kMinute,
                   kChannel, 64, fault::AddrBlock::parse("10.66.0.0/16"), 4);
  return plan;
}

struct RunResult {
  adversary::AbuseReport report;
  std::vector<std::string> attack_log;
  bool provisioned = false;
};

/// One full adversarial run: provision the deployment, arm the plan, ride
/// it out, collect the verdict. Everything is scoped here so the
/// determinism check can run the whole thing twice from scratch.
RunResult run_scenario(const adversary::AdversaryPlan& plan, bool live,
                       std::uint64_t seed) {
  net::DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.default_link.latency.floor = live ? 1 * util::kMillisecond : 10 * util::kMillisecond;
  cfg.default_link.latency.median = live ? 4 * util::kMillisecond : 40 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;  // the fuzzer is the only corruption source
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 8 * util::kMillisecond;
  // Eviction must be observable, not papered over: a resilient client
  // answers a refused renewal with a fresh re-login (a new fresh issue),
  // which would mask the single-session signal this suite gates on.
  cfg.client_resilience = false;
  // The tracker defenses under test: per-source registration rate limiting
  // backed by a per-channel cap. The cap is sized so the rate limiter is
  // the binding defense against the 4-source flood (4 sources x burst 4 =
  // 16 admitted, far under the cap even with the honest overlay inside).
  cfg.tracker_limits.max_peers_per_channel = 40;
  cfg.tracker_limits.registration_burst = 4;
  cfg.tracker_limits.registration_window = 10 * util::kSecond;
  if (live) {
    cfg.transport = net::TransportKind::kThread;
    cfg.transport_threads = 4;
    cfg.request_timeout = live_scale() * 400 * util::kMillisecond;
    cfg.max_retries = 6;
    // Wall-clock runs cannot wait ten minutes for the ring adjudication.
    cfg.cm.ticket_lifetime = live_scale() * 12 * util::kSecond;
    cfg.cm.renewal_window = live_scale() * 6 * util::kSecond;
  }

  net::Deployment d(cfg);
  d.policy_manager().add_channel(make_global_channel(d), d.now());
  d.start_channel_server(kChannel);

  const geo::RegionId region = d.geo().region_at(0);
  std::vector<net::AsyncClient*> viewers;
  for (std::size_t i = 0; i < kViewers; ++i) {
    const std::string email = "viewer-" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    viewers.push_back(&d.add_client(email, "pw", region));
  }
  // Honest viewers log in, join, announce and keep renewing. The whole op
  // runs on the viewer's own loop under run_op: announce and auto-renewal
  // touch loop-confined client state on the live transport.
  const util::SimTime renew_margin =
      live ? live_scale() * 3 * util::kSecond : 2 * util::kMinute;
  std::size_t provisioned = 0;
  for (net::AsyncClient* c : viewers) {
    const auto on_joined = [&d, c, renew_margin] {
      d.announce(*c);
      c->enable_auto_renewal(renew_margin);
    };
    const auto join = net::login_and_switch(*c, kChannel, on_joined);
    if (d.run_op(*c, join, 5 * util::kMinute) == core::DrmError::kOk) ++provisioned;
  }

  // Late honest viewers arrive mid-attack, inside the fuzz window and after
  // the rogue parents have climbed the tracker's candidate list: their join
  // walks are what the rogue pollution metrics observe, their corrupted
  // rounds are what the malformed-drop accounting counts, and their tickets
  // are collateral the gates watch. They retry like a human would (the
  // fuzzer can kill any single attempt; resilience is off deployment-wide
  // so ring evictions stay observable).
  const util::SimTime late_at = live ? live_scale() * 2500 * util::kMillisecond
                                     : 120 * util::kSecond;
  const util::SimTime late_retry =
      live ? live_scale() * util::kSecond : 15 * util::kSecond;
  // Each retry closure captures its own shared function (it must outlive an
  // unknown number of rescheduled attempts), which is a reference cycle;
  // scenario teardown below breaks it explicitly.
  std::vector<std::shared_ptr<std::function<void(int)>>> retries;
  for (int v = 0; v < 2; ++v) {
    const std::string late_email =
        "late-viewer-" + std::to_string(v) + "@example.com";
    d.add_user(late_email, "pw");
    net::AsyncClient& late = d.add_client(late_email, "pw", region);
    auto late_try = std::make_shared<std::function<void(int)>>();
    retries.push_back(late_try);
    *late_try = [&d, &late, late_try, late_retry](int attempt) {
      const auto again = [&d, &late, late_try, late_retry, attempt] {
        // A failed switch that still minted the Channel Ticket (the join
        // walk hit a polluted candidate) is a kept session for our
        // purposes: stop before a fresh login throws the ticket away.
        if (attempt < 8 && !late.channel_ticket()) {
          d.network().post(late.config().node, late_retry,
                           [late_try, attempt] { (*late_try)(attempt + 1); });
        }
      };
      // Full login + switch each attempt: a corrupted listing response can
      // poison the cached partition map, and only a re-login refetches it.
      late.login([&d, &late, again](core::DrmError err) {
        if (err != core::DrmError::kOk) {
          again();
          return;
        }
        late.switch_channel(kChannel, [&d, &late, again](core::DrmError err2) {
          if (err2 == core::DrmError::kOk) {
            d.announce(late);
          } else {
            again();
          }
        });
      });
    };
    d.network().post(late.config().node,
                     late_at + v * (live ? live_scale() * 500 * util::kMillisecond
                                         : 10 * util::kSecond),
                     [late_try] { (*late_try)(0); });
  }

  // Keep content flowing so the overlay (and the fuzzer's blast radius)
  // sees real substream traffic throughout the attack window.
  const util::SimTime tick =
      live ? live_scale() * util::kSecond : 30 * util::kSecond;
  for (int i = 1; i <= 10; ++i) {
    d.post(i * tick, [&d] {
      const util::Bytes frame(256, std::uint8_t{0x5a});
      d.broadcast(kChannel, frame);
    });
  }

  adversary::AdversaryEngineConfig ecfg;
  ecfg.seed = seed;
  if (live) ecfg.probe_timeout = live_scale() * ecfg.probe_timeout;
  adversary::AdversaryEngine engine(d, plan, ecfg);
  engine.arm();

  // Long enough for the ring's delayed renewals plus their answers (ring
  // switches at ~3m40s/7s, renewals 8m/8s after that).
  d.run_until(live ? live_scale() * 18 * util::kSecond : 13 * util::kMinute);
  if (live) d.transport().shutdown();  // quiesce before reading shared state
  for (auto& f : retries) *f = nullptr;  // break the self-capture cycles

  RunResult r;
  r.report = adversary::AbuseReport::collect(d, engine, seed);
  r.attack_log = engine.log();
  r.provisioned = provisioned == kViewers;
  return r;
}

void print_report(const RunResult& r) {
  std::printf("\n=== attack log ===\n");
  for (const std::string& line : r.attack_log) std::printf("%s\n", line.c_str());
  const adversary::AbuseReport& rep = r.report;
  std::printf("\n=== abuse summary ===\n");
  std::printf("forgery probes: %llu sent, %llu accepted, %llu rejected, %llu timed out\n",
              static_cast<unsigned long long>(rep.probes_sent),
              static_cast<unsigned long long>(rep.probes_accepted),
              static_cast<unsigned long long>(rep.probes_rejected),
              static_cast<unsigned long long>(rep.probes_timed_out));
  std::printf("fuzz: %llu mutations injected, %llu packets mutated network-wide, "
              "%llu malformed drops counted\n",
              static_cast<unsigned long long>(rep.fuzz_mutations),
              static_cast<unsigned long long>(rep.packets_mutated),
              static_cast<unsigned long long>(rep.malformed_drops));
  std::printf("rogue peers: %llu planted, %llu joins poisoned, %llu keys withheld\n",
              static_cast<unsigned long long>(rep.rogue_peers),
              static_cast<unsigned long long>(rep.rogue_joins_granted),
              static_cast<unsigned long long>(rep.rogue_keys_withheld));
  std::printf("sybil: %llu attempted, %llu admitted (rate-limited %llu, "
              "capacity %llu)\n",
              static_cast<unsigned long long>(rep.sybil_attempted),
              static_cast<unsigned long long>(rep.sybil_admitted),
              static_cast<unsigned long long>(rep.tracker_rejected_rate),
              static_cast<unsigned long long>(rep.tracker_rejected_capacity));
  std::printf("cred-share ring: %llu members, %llu renewed, %llu evicted "
              "(%llu viewing-log entries)\n",
              static_cast<unsigned long long>(rep.ring_members),
              static_cast<unsigned long long>(rep.ring_renewals_ok),
              static_cast<unsigned long long>(rep.ring_renewals_refused),
              static_cast<unsigned long long>(rep.viewing_entries));
  for (std::size_t i = 0; i < rep.ring_outcomes.size(); ++i) {
    std::printf("  ring[%zu]: %s\n", i, rep.ring_outcomes[i].c_str());
  }
  std::printf("collateral: %llu honest clients, %llu still ticketed, "
              "%llu frames decrypted\n",
              static_cast<unsigned long long>(rep.honest_clients),
              static_cast<unsigned long long>(rep.honest_with_ticket),
              static_cast<unsigned long long>(rep.honest_content_decrypted));
}

}  // namespace

int main(int argc, char** argv) {
  bool live = false;
  const char* plan_path = nullptr;
  const char* abuse_out = std::getenv("P2PDRM_ABUSE_OUT");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--transport=", 0) == 0) {
      const std::string transport = arg.substr(std::string("--transport=").size());
      if (transport == "thread") {
        live = true;
      } else if (transport != "sim") {
        std::fprintf(stderr, "abuse_demo: unknown --transport=%s (want sim|thread)\n",
                     transport.c_str());
        return 1;
      }
    } else if (arg.rfind("--abuse-out=", 0) == 0) {
      abuse_out = argv[i] + std::string("--abuse-out=").size();
    } else {
      plan_path = argv[i];
    }
  }

  adversary::AdversaryPlan plan = built_in_plan(live);
  if (plan_path != nullptr) {
    std::ifstream in(plan_path);
    if (!in) {
      std::fprintf(stderr, "abuse_demo: cannot read %s\n", plan_path);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      plan = adversary::AdversaryPlan::parse(buf.str());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "abuse_demo: %s\n", e.what());
      return 1;
    }
  }

  constexpr std::uint64_t kSeed = 0xab05ed;
  std::printf("=== adversary schedule (%zu attacks, %s transport) ===\n%s",
              plan.size(), live ? "thread" : "sim", plan.to_string().c_str());

  const RunResult run = run_scenario(plan, live, kSeed);
  print_report(run);
  const std::string json = run.report.to_json();

  if (abuse_out != nullptr) {
    std::ofstream out(abuse_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "abuse_demo: cannot write %s\n", abuse_out);
      return 1;
    }
    out << json;
    std::printf("\nwrote p2pdrm.abuse.v1 report to %s\n", abuse_out);
  }

  const adversary::AbuseReport& rep = run.report;
  const std::size_t rings = 1;  // built-in and file plans alike: gate per run
  std::printf("\n=== abuse gates ===\n");
  bool ok = true;
  ok &= gate(run.provisioned, "every honest viewer joined before the attacks");
  ok &= gate(rep.probes_sent >= 8,
             "the forgery chain covered all five protocol rounds");
  ok &= gate(rep.gate_no_forgery && rep.probes_timed_out == 0,
             "zero successful forgeries: every probe got an explicit refusal");
  ok &= gate(rep.fuzz_mutations > 0, "the fuzzer really corrupted live traffic");
  if (!live) {
    // Deterministic on sim; on the live transport the window's overlap with
    // server-bound rounds is timing-dependent, so the drop accounting is
    // reported but not gated there.
    ok &= gate(rep.malformed_drops > 0,
               "malformed packets were counted and dropped, never thrown");
  }
  if (!live) {
    // Whether a join walk touches a rogue depends on the tracker's sampling
    // order — deterministic on sim, a coin flip per run on the live
    // transport, so reported-but-not-gated there.
    ok &= gate(rep.rogue_joins_granted > 0,
               "the rogue parents poisoned at least one join walk");
  }
  ok &= gate(rep.sybil_attempted > 0 &&
                 rep.sybil_admitted < rep.sybil_attempted &&
                 rep.tracker_rejected_rate > 0,
             "tracker limits turned the Sybil flood away (rate limiting hit)");
  ok &= gate(rep.ring_members >= 2 && rep.ring_renewals_ok <= rings &&
                 rep.ring_renewals_refused >= rep.ring_members - rings,
             "single-session rule: at most one ring survivor, rest evicted");
  ok &= gate(rep.viewing_entries > 0,
             "the ViewingLog journaled the sessions it adjudicated from");
  ok &= gate(rep.gate_bounded_collateral,
             "bounded collateral: every honest client kept its Channel Ticket");
  ok &= gate(rep.pass(), "AbuseReport gates all green");

  if (!live) {
    // The determinism contract: a second run of the same (seed, plan) must
    // reproduce the artifact byte for byte on the sim backend.
    const RunResult rerun = run_scenario(plan, live, kSeed);
    ok &= gate(rerun.report.to_json() == json,
               "byte-identical AbuseReport across two runs (same seed + plan)");
  }
  return ok ? 0 : 1;
}
