#include "adversary/abuse_report.h"

#include <set>

#include "obs/json_writer.h"

namespace p2pdrm::adversary {

AbuseReport AbuseReport::collect(net::Deployment& deployment,
                                 const AdversaryEngine& engine,
                                 std::uint64_t seed) {
  AbuseReport r;
  r.seed = seed;
  r.transport = deployment.live() ? "thread" : "sim";

  r.probes_sent = engine.probes_sent();
  r.probes_accepted = engine.probes_accepted();
  r.probes_rejected = engine.probes_rejected();
  r.probes_timed_out = engine.probes_timed_out();
  r.probes = engine.probe_outcomes();

  r.fuzz_mutations = engine.fuzz_mutations();
  r.packets_mutated = deployment.network().packets_mutated();
  if (const obs::Counter* c =
          deployment.registry().find_counter("server.drops{malformed}")) {
    r.malformed_drops = c->value();
  }

  r.rogue_peers = engine.rogues().size();
  for (const std::unique_ptr<RoguePeer>& rogue : engine.rogues()) {
    r.rogue_joins_granted += rogue->joins_captured();
    r.rogue_keys_withheld += rogue->keys_withheld();
  }

  r.sybil_attempted = engine.sybil_attempted();
  r.sybil_admitted = engine.sybil_admitted();
  r.tracker_rejected_rate = deployment.tracker().rejected_rate();
  r.tracker_rejected_capacity = deployment.tracker().rejected_capacity();

  r.ring_members = engine.ring().size();
  r.ring_logins_ok = engine.ring_logins_ok();
  r.ring_switches_ok = engine.ring_switches_ok();
  r.ring_renewals_ok = engine.ring_renewals_ok();
  r.ring_renewals_refused = engine.ring_renewals_refused();
  r.ring_outcomes = engine.ring_outcomes();
  for (std::size_t p = 0; p < deployment.partition_count(); ++p) {
    r.viewing_entries += deployment.cm_partition(static_cast<std::uint32_t>(p))
                             .log.size();
  }

  const std::set<const net::AsyncClient*> ring(engine.ring().begin(),
                                               engine.ring().end());
  for (const std::unique_ptr<net::AsyncClient>& client : deployment.clients()) {
    if (ring.count(client.get()) != 0) continue;
    ++r.honest_clients;
    if (!client->departed() && client->channel_ticket()) ++r.honest_with_ticket;
    r.honest_content_decrypted += client->content_decrypted();
    r.honest_timeout_exhaustions += client->timeout_exhaustions();
  }

  std::uint64_t rings = 0;
  for (const AdversaryEvent& ev : engine.plan().events()) {
    if (ev.kind == AttackKind::kCredShare) ++rings;
  }
  r.gate_no_forgery = r.probes_accepted == 0;
  // At most one surviving session per shared account (one ring = one
  // account): a second survivor is a dual session the journal missed.
  r.gate_single_session = r.ring_renewals_ok <= rings;
  // Every honest client ends the run still holding its Channel Ticket —
  // the attacks may slow them down, never push them out.
  r.gate_bounded_collateral =
      r.honest_clients == 0 || r.honest_with_ticket == r.honest_clients;
  return r;
}

std::string AbuseReport::to_json() const {
  // The field order is part of the artifact contract (byte-stable across
  // runs): everything is written explicitly, no map iteration.
  obs::JsonWriter j;
  j.begin_object();
  j.kv("schema", "p2pdrm.abuse.v1");
  j.kv("seed", seed);
  j.kv("transport", transport);

  j.key("forgery").begin_object();
  j.kv("sent", probes_sent);
  j.kv("accepted", probes_accepted);
  j.kv("rejected", probes_rejected);
  j.kv("timed_out", probes_timed_out);
  j.key("probes").begin_array();
  for (const ProbeOutcome& p : probes) {
    j.begin_object().kv("probe", p.probe).kv("outcome", p.outcome).end_object();
  }
  j.end_array().end_object();

  j.key("fuzz").begin_object();
  j.kv("mutations", fuzz_mutations);
  j.kv("packets_mutated", packets_mutated);
  j.kv("malformed_drops", malformed_drops);
  j.end_object();

  j.key("rogue").begin_object();
  j.kv("peers", rogue_peers);
  j.kv("joins_granted", rogue_joins_granted);
  j.kv("keys_withheld", rogue_keys_withheld);
  j.end_object();

  j.key("sybil").begin_object();
  j.kv("attempted", sybil_attempted);
  j.kv("admitted", sybil_admitted);
  j.kv("rejected_rate", tracker_rejected_rate);
  j.kv("rejected_capacity", tracker_rejected_capacity);
  j.end_object();

  j.key("cred_share").begin_object();
  j.kv("members", ring_members);
  j.kv("logins_ok", ring_logins_ok);
  j.kv("switches_ok", ring_switches_ok);
  j.kv("renewals_ok", ring_renewals_ok);
  j.kv("renewals_refused", ring_renewals_refused);
  j.key("outcomes").begin_array();
  for (const std::string& outcome : ring_outcomes) j.value(outcome);
  j.end_array();
  j.kv("viewing_entries", viewing_entries);
  j.end_object();

  j.key("collateral").begin_object();
  j.kv("honest_clients", honest_clients);
  j.kv("with_ticket", honest_with_ticket);
  j.kv("content_decrypted", honest_content_decrypted);
  j.kv("timeout_exhaustions", honest_timeout_exhaustions);
  j.end_object();

  j.key("gates").begin_object();
  j.kv("no_forgery", gate_no_forgery);
  j.kv("single_session", gate_single_session);
  j.kv("bounded_collateral", gate_bounded_collateral);
  j.kv("pass", pass());
  j.end_object();

  j.end_object();
  return j.str();
}

}  // namespace p2pdrm::adversary
