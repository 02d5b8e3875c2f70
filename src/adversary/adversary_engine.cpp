#include "adversary/adversary_engine.h"

#include "core/messages.h"
#include "crypto/rsa.h"

namespace p2pdrm::adversary {

using core::DrmError;

/// Everything one replay-probe chain needs, shared by its async
/// continuations (victim session, attacker actor, stolen material).
struct AdversaryEngine::ProbeRun {
  net::AsyncClient* victim = nullptr;
  AttackClient* attacker = nullptr;
  util::ChannelId channel = 0;
  util::NodeId cm_node = util::kInvalidNode;
  util::NodeId root_node = util::kInvalidNode;
  std::string victim_email;
  crypto::RsaKeyPair attacker_keys;
  core::SignedUserTicket user_ticket;
  core::SignedChannelTicket channel_ticket;
  util::Bytes captured_switch2;  // verbatim wire of the victim's SWITCH2
};

namespace {

/// One deterministic bit flip in the middle of a ticket's bytes — enough to
/// break either the body parse or the signature, never the outer message
/// framing (the field is length-prefixed opaque bytes).
util::Bytes flip_middle_bit(util::Bytes bytes) {
  if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x01;
  return bytes;
}

}  // namespace

AdversaryEngine::AdversaryEngine(net::Deployment& deployment, AdversaryPlan plan,
                                 AdversaryEngineConfig config)
    : dep_(deployment), plan_(std::move(plan)), config_(config),
      rng_(config.seed),
      probes_sent_(deployment.registry().counter("abuse.probes.sent")),
      probes_accepted_(deployment.registry().counter("abuse.probes.accepted")),
      probes_rejected_(deployment.registry().counter("abuse.probes.rejected")),
      probes_timed_out_(deployment.registry().counter("abuse.probes.timeout")),
      fuzz_mutations_(deployment.registry().counter("abuse.fuzz.mutations")),
      sybil_attempted_(deployment.registry().counter("abuse.sybil.attempted")),
      sybil_admitted_(deployment.registry().counter("abuse.sybil.admitted")),
      sybil_rejected_(deployment.registry().counter("abuse.sybil.rejected")),
      ring_logins_ok_(deployment.registry().counter("abuse.ring.logins_ok")),
      ring_switches_ok_(deployment.registry().counter("abuse.ring.switches_ok")),
      ring_renewals_ok_(deployment.registry().counter("abuse.ring.survivors")),
      ring_renewals_refused_(deployment.registry().counter("abuse.ring.evictions")) {}

AdversaryEngine::~AdversaryEngine() {
  dep_.network().remove_interceptor(this);
}

void AdversaryEngine::arm() {
  if (armed_) return;
  armed_ = true;
  dep_.network().add_interceptor(this);
  const util::SimTime now = dep_.now();
  for (const AdversaryEvent& ev : plan_.events()) {
    const util::SimTime delay = ev.at > now ? ev.at - now : 0;
    dep_.post(delay, [this, ev] { apply(ev); });
  }
}

void AdversaryEngine::note(const std::string& line) {
  std::lock_guard<std::mutex> lk(mu_);
  log_.push_back(fault::format_duration(dep_.now()) + " " + line);
}

std::vector<std::string> AdversaryEngine::log() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_;
}

std::vector<ProbeOutcome> AdversaryEngine::probe_outcomes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return probe_outcomes_;
}

std::vector<std::string> AdversaryEngine::ring_outcomes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_outcomes_;
}

// --- interceptor: wire capture + fuzz ------------------------------------

util::Bytes AdversaryEngine::corrupt_locked(const util::Bytes& data) {
  util::Bytes out = data;
  if (out.size() > 1 && rng_.chance(0.5)) {
    out.resize(rng_.uniform(out.size()));  // truncation, possibly to nothing
  } else if (!out.empty()) {
    const std::size_t flips = 1 + rng_.uniform(7);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t byte = rng_.uniform(out.size());
      out[byte] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
    }
  }
  return out;
}

net::SendInterceptor::Verdict AdversaryEngine::on_send(const net::SendContext& ctx) {
  Verdict v;
  if (ctx.data == nullptr) return v;
  std::lock_guard<std::mutex> lk(mu_);

  if (capture_from_ && ctx.from_addr == *capture_from_ && !captured_switch2_) {
    const auto env = net::Envelope::decode(*ctx.data);
    if (env && env->kind == net::MsgKind::kSwitch2Request) {
      captured_switch2_ = *ctx.data;
      capture_from_.reset();
    }
  }

  for (const FuzzWindow& w : fuzz_windows_) {
    if (ctx.now >= w.until) continue;
    if (!w.scope.contains(ctx.from_addr) && !w.scope.contains(ctx.to_addr)) continue;
    if (!rng_.chance(w.rate)) continue;
    v.replace = corrupt_locked(*ctx.data);
    fuzz_mutations_.inc();
    break;  // one corruption per packet, even under overlapping windows
  }
  return v;
}

// --- event dispatch -------------------------------------------------------

void AdversaryEngine::apply(const AdversaryEvent& ev) {
  note(ev.to_string());
  switch (ev.kind) {
    case AttackKind::kReplayProbe:
      launch_replay_probe(ev);
      return;
    case AttackKind::kFuzz: {
      std::lock_guard<std::mutex> lk(mu_);
      const util::SimTime now = dep_.now();
      std::erase_if(fuzz_windows_,
                    [now](const FuzzWindow& w) { return now >= w.until; });
      fuzz_windows_.push_back({ev.scope, ev.rate, now + ev.duration});
      return;
    }
    case AttackKind::kRoguePeer:
      launch_rogue_peers(ev);
      return;
    case AttackKind::kSybilFlood:
      launch_sybil_flood(ev);
      return;
    case AttackKind::kCredShare:
      launch_cred_share(ev);
      return;
  }
}

// --- replay / forgery probes ---------------------------------------------

void AdversaryEngine::launch_replay_probe(const AdversaryEvent& ev) {
  dep_.add_user(ev.email, ev.password);
  const geo::RegionId victim_region =
      config_.victim_region.value_or(dep_.geo().region_at(0));
  net::AsyncClient& victim = dep_.add_client(ev.email, ev.password, victim_region);

  auto run = std::make_shared<ProbeRun>();
  run->victim = &victim;
  run->channel = ev.channel;
  run->victim_email = ev.email;
  run->root_node = net::Deployment::kChannelRootBase + ev.channel;
  const core::ChannelRecord* record = dep_.policy_manager().find_channel(ev.channel);
  run->cm_node = net::Deployment::kChannelManagerBase +
                 (record != nullptr ? record->partition : 0);

  // The attacker node: a different address than the victim's (the whole
  // point of the address-binding defense), in the geo plan's last region.
  util::NetAddr attacker_addr;
  const util::NodeId attacker_node = next_attacker_++;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const geo::RegionId far =
        dep_.geo().region_at(dep_.geo().num_regions() - 1);
    do {
      attacker_addr = dep_.geo().sample_address(rng_, far);
    } while (attacker_addr == victim.config().addr);
    run->attacker_keys = crypto::generate_rsa_keypair(rng_, 512);
  }
  attackers_.push_back(
      std::make_unique<AttackClient>(dep_.network(), attacker_node, attacker_addr));
  run->attacker = attackers_.back().get();

  // Drive the victim through a real session on its own loop; arm the wire
  // capture just before the switch so the SWITCH2 request is stolen in
  // flight, then start the probe chain with the hot material.
  dep_.network().post(victim.config().node, 0, [this, run] {
    run->victim->login([this, run](DrmError err) {
      if (err != DrmError::kOk) {
        note("replay-probe victim login failed: " +
             std::string(core::to_string(err)));
        return;
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        capture_from_ = run->victim->config().addr;
        captured_switch2_.reset();
      }
      run->victim->switch_channel(run->channel, [this, run](DrmError err2) {
        if (err2 != DrmError::kOk) {
          note("replay-probe victim switch failed: " +
               std::string(core::to_string(err2)));
          return;
        }
        run->user_ticket = *run->victim->user_ticket();
        run->channel_ticket = *run->victim->channel_ticket();
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (captured_switch2_) run->captured_switch2 = *captured_switch2_;
          capture_from_.reset();
        }
        run_probe_chain(run, 0);
      });
    });
  });
}

void AdversaryEngine::record_probe(const std::string& probe,
                                   const net::Envelope* resp,
                                   net::MsgKind expect) {
  bool accepted = false;
  std::string outcome;
  if (resp == nullptr) {
    outcome = "timeout";
  } else if (resp->kind != expect) {
    outcome = "unexpected-" + std::string(net::to_string(resp->kind));
  } else {
    try {
      switch (expect) {
        case net::MsgKind::kLogin1Response:
          outcome = core::to_string(core::Login1Response::decode(resp->payload).error);
          break;
        case net::MsgKind::kLogin2Response: {
          const auto r = core::Login2Response::decode(resp->payload);
          accepted = r.ticket.has_value();
          outcome = accepted ? "accepted" : std::string(core::to_string(r.error));
          break;
        }
        case net::MsgKind::kSwitch1Response:
          outcome = core::to_string(core::Switch1Response::decode(resp->payload).error);
          break;
        case net::MsgKind::kSwitch2Response: {
          const auto r = core::Switch2Response::decode(resp->payload);
          accepted = r.ticket.has_value();
          outcome = accepted ? "accepted" : std::string(core::to_string(r.error));
          break;
        }
        case net::MsgKind::kJoinResponse: {
          const auto r = core::JoinResponse::decode(resp->payload);
          accepted = r.error == DrmError::kOk;
          outcome = accepted ? "accepted" : std::string(core::to_string(r.error));
          break;
        }
        default:
          outcome = "unclassified";
          break;
      }
    } catch (const util::WireError&) {
      outcome = "undecodable";
    }
  }

  if (resp == nullptr) {
    probes_timed_out_.inc();
  } else if (accepted) {
    probes_accepted_.inc();
  } else {
    probes_rejected_.inc();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    probe_outcomes_.push_back({probe, outcome});
    log_.push_back(fault::format_duration(dep_.now()) + " probe " + probe +
                   " -> " + outcome);
  }
}

void AdversaryEngine::run_probe_chain(std::shared_ptr<ProbeRun> run,
                                      std::size_t step) {
  const auto send = [&](const char* probe, util::NodeId to, net::MsgKind kind,
                        util::Bytes payload, net::MsgKind expect) {
    probes_sent_.inc();
    std::string label = probe;
    run->attacker->send(
        to, kind, std::move(payload), config_.probe_timeout,
        [this, run, label, expect, step](const net::Envelope* e) {
          record_probe(label, e, expect);
          run_probe_chain(run, step + 1);
        });
  };

  // Random material drawn under the engine's DRBG so the whole chain is
  // deterministic for a given (seed, plan).
  const auto forged_challenge = [&] {
    core::Challenge ch;
    std::lock_guard<std::mutex> lk(mu_);
    ch.nonce = rng_.bytes(core::kNonceSize);
    ch.issued_at = dep_.now();
    ch.mac = rng_.bytes(32);
    return ch;
  };
  const auto random_bytes = [&](std::size_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    return rng_.bytes(n);
  };

  switch (step) {
    case 0: {
      // Round 1, LOGIN1 with a non-existent account: must be shaped exactly
      // like a real user's response (no account-existence oracle).
      core::Login1Request req;
      req.email = "ghost-" + run->victim_email;
      req.client_public_key = run->attacker_keys.pub;
      req.client_version = 1;
      send("login1-ghost", net::Deployment::kUserManagerNode,
           net::MsgKind::kLogin1Request, req.encode(),
           net::MsgKind::kLogin1Response);
      return;
    }
    case 1: {
      // Round 2, LOGIN2 with a fabricated challenge: the farm MAC check
      // must refuse a nonce the manager never minted.
      core::Login2Request req;
      req.email = run->victim_email;
      req.client_public_key = run->attacker_keys.pub;
      req.client_version = 1;
      req.checksum = random_bytes(32);
      req.challenge = forged_challenge();
      req.proof = random_bytes(64);
      send("login2-forged-challenge", net::Deployment::kUserManagerNode,
           net::MsgKind::kLogin2Request, req.encode(),
           net::MsgKind::kLogin2Response);
      return;
    }
    case 2: {
      // Round 3, SWITCH1 with the stolen (valid!) User Ticket from the
      // attacker's address: the NetAddr attribute binding must refuse it.
      core::Switch1Request req;
      req.user_ticket = run->user_ticket.encode();
      req.channel_id = run->channel;
      send("switch1-stolen-ticket", run->cm_node, net::MsgKind::kSwitch1Request,
           req.encode(), net::MsgKind::kSwitch1Response);
      return;
    }
    case 3: {
      // Round 4, SWITCH2 with the stolen ticket and a forged proof.
      core::Switch2Request req;
      req.user_ticket = run->user_ticket.encode();
      req.channel_id = run->channel;
      req.challenge = forged_challenge();
      req.proof = random_bytes(64);
      send("switch2-stolen-ticket", run->cm_node, net::MsgKind::kSwitch2Request,
           req.encode(), net::MsgKind::kSwitch2Response);
      return;
    }
    case 4: {
      // SWITCH2 with a tampered User Ticket: one flipped bit must break the
      // signature (or the parse) — kBadTicket either way.
      core::Switch2Request req;
      req.user_ticket = flip_middle_bit(run->user_ticket.encode());
      req.channel_id = run->channel;
      req.challenge = forged_challenge();
      req.proof = random_bytes(64);
      send("switch2-mutated-ticket", run->cm_node, net::MsgKind::kSwitch2Request,
           req.encode(), net::MsgKind::kSwitch2Response);
      return;
    }
    case 5: {
      // The victim's real SWITCH2 request, byte-for-byte off the wire, from
      // the attacker's node: valid MAC, valid proof — still refused, because
      // the User Ticket's address is not the connection's.
      if (run->captured_switch2.empty()) {
        note("probe switch2-replay skipped: nothing captured");
        run_probe_chain(run, step + 1);
        return;
      }
      probes_sent_.inc();
      run->attacker->replay(
          run->cm_node, run->captured_switch2, config_.probe_timeout,
          [this, run, step](const net::Envelope* e) {
            record_probe("switch2-replay", e, net::MsgKind::kSwitch2Response);
            run_probe_chain(run, step + 1);
          });
      return;
    }
    case 6: {
      // Round 5, JOIN at the channel root with the stolen Channel Ticket:
      // delegated verification must catch the address mismatch.
      core::JoinRequest req;
      req.channel_ticket = run->channel_ticket.encode();
      send("join-stolen-ticket", run->root_node, net::MsgKind::kJoinRequest,
           req.encode(), net::MsgKind::kJoinResponse);
      return;
    }
    case 7: {
      core::JoinRequest req;
      req.channel_ticket = flip_middle_bit(run->channel_ticket.encode());
      send("join-mutated-ticket", run->root_node, net::MsgKind::kJoinRequest,
           req.encode(), net::MsgKind::kJoinResponse);
      return;
    }
    default:
      note("replay-probe chain complete (" +
           std::to_string(probes_sent_.value()) +
           " probes so far)");
      return;
  }
}

// --- overlay attacks ------------------------------------------------------

void AdversaryEngine::launch_rogue_peers(const AdversaryEvent& ev) {
  for (std::size_t i = 0; i < ev.count; ++i) {
    const util::NodeId node = next_rogue_++;
    util::NetAddr addr;
    crypto::SecureRandom actor_rng(0);
    {
      std::lock_guard<std::mutex> lk(mu_);
      const geo::RegionId region = dep_.geo().region_at(
          static_cast<int>(i) % dep_.geo().num_regions());
      addr = dep_.geo().sample_address(rng_, region);
      actor_rng = rng_.fork();
    }
    rogues_.push_back(std::make_unique<RoguePeer>(
        dep_.network(), node, addr, ev.mode == RogueMode::kWithholdKeys,
        std::move(actor_rng)));
    // Advertise with a huge spare capacity so the tracker's spare-preferred
    // sampling loves this parent — exactly how a real polluter climbs the
    // candidate list.
    dep_.tracker().register_peer(ev.channel, core::PeerInfo{node, addr}, 64,
                                 dep_.now());
  }
}

void AdversaryEngine::launch_sybil_flood(const AdversaryEvent& ev) {
  // The flood originates from `sources` distinct addresses inside the
  // block: per-source rate limiting throttles each one independently.
  const std::uint32_t mask =
      ev.scope.bits == 0
          ? 0u
          : (ev.scope.bits >= 32 ? 0xffffffffu : ~(0xffffffffu >> ev.scope.bits));
  std::vector<util::NetAddr> sources;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < ev.sources; ++i) {
      sources.push_back(
          util::NetAddr{(ev.scope.addr & mask) | (rng_.next_u32() & ~mask)});
    }
  }
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < ev.count; ++i) {
    const util::NodeId node = next_sybil_++;
    const util::NetAddr src = sources[i % sources.size()];
    // Bogus identities are never attached to the network: an honest client
    // steered to one just times out and walks on — that timeout is the
    // collateral the tracker limits are there to bound.
    sybil_attempted_.inc();
    if (dep_.tracker().register_peer(ev.channel, core::PeerInfo{node, src}, 8,
                                     dep_.now())) {
      ++admitted;
      sybil_admitted_.inc();
    } else {
      sybil_rejected_.inc();
    }
  }
  note("sybil flood: " + std::to_string(admitted) + "/" +
       std::to_string(ev.count) + " identities admitted");
}

// --- credential-sharing ring ---------------------------------------------

void AdversaryEngine::launch_cred_share(const AdversaryEvent& ev) {
  dep_.add_user(ev.email, ev.password);
  const int regions = dep_.geo().num_regions();
  std::size_t base = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    base = ring_outcomes_.size();
    ring_outcomes_.resize(base + ev.count, "pending");
  }
  const auto set_outcome = [this](std::size_t slot, std::string outcome) {
    std::lock_guard<std::mutex> lk(mu_);
    ring_outcomes_[slot] = std::move(outcome);
  };

  for (std::size_t i = 0; i < ev.count; ++i) {
    const geo::RegionId region =
        dep_.geo().region_at(static_cast<int>(i) % regions);
    net::AsyncClient& member = dep_.add_client(ev.email, ev.password, region);
    ring_.push_back(&member);
    const std::size_t slot = base + i;
    const util::ChannelId channel = ev.channel;
    const util::SimTime renew_after = ev.duration;

    // Each member runs on its own node loop: log in, take a fresh Channel
    // Ticket (fresh issues always succeed — the single-session rule bites
    // at renewal, when the ViewingLog's latest fresh-issue entry names a
    // *different* machine), then come back renew_after later.
    dep_.network().post(member.config().node, 0, [this, &member, slot, channel,
                                                  renew_after, set_outcome] {
      member.login([this, &member, slot, channel, renew_after,
                    set_outcome](DrmError err) {
        if (err != DrmError::kOk) {
          set_outcome(slot, "login-failed:" + std::string(core::to_string(err)));
          return;
        }
        ring_logins_ok_.inc();
        member.switch_channel(channel, [this, &member, slot, renew_after,
                                        set_outcome](DrmError err2) {
          if (err2 != DrmError::kOk) {
            set_outcome(slot,
                        "switch-failed:" + std::string(core::to_string(err2)));
            return;
          }
          ring_switches_ok_.inc();
          dep_.network().post(
              member.config().node, renew_after, [this, &member, slot, set_outcome] {
                member.renew_channel_ticket([this, slot,
                                             set_outcome](DrmError err3) {
                  if (err3 == DrmError::kOk) {
                    ring_renewals_ok_.inc();
                    set_outcome(slot, "renewed");
                  } else {
                    ring_renewals_refused_.inc();
                    set_outcome(slot,
                                "refused:" + std::string(core::to_string(err3)));
                  }
                });
              });
        });
      });
    });
  }
}

}  // namespace p2pdrm::adversary
