// Adversary engine: executes an AdversaryPlan against a live Deployment —
// the hostile mirror of fault::FaultEngine. Replay probes steal a real
// victim's tickets off the wire and re-present them (mutated and verbatim)
// across every protocol round from an attacker address; the fuzzer
// truncates/bit-flips live traffic through the net::SendInterceptor
// payload-replacement seam; rogue peers and Sybil identities attack the
// overlay and its tracker; credential-sharing rings drive concurrent
// sessions on one account until the ViewingLog's single-session rule
// evicts them. Everything is deterministic: the engine draws from its own
// forked DRBG, so the same (seed, plan) pair replays the exact same probe
// outcomes and the exact same AbuseReport on the sim backend.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary_plan.h"
#include "adversary/attack_actors.h"
#include "net/deployment.h"

namespace p2pdrm::adversary {

struct AdversaryEngineConfig {
  /// Seed of the engine's own DRBG (fuzz coin flips, forged nonces, attack
  /// addresses). Independent of the deployment's stream so arming a plan
  /// never perturbs the honest workload's random sequence.
  std::uint64_t seed = 0xab05ed;
  /// How long a probe waits for the service's answer before counting the
  /// silence as a rejection.
  util::SimTime probe_timeout = 2 * util::kSecond;
  /// Region replay-probe victims log in from (regional channels deny
  /// out-of-region accounts). Default: the geo plan's first region.
  std::optional<geo::RegionId> victim_region;
};

/// One forgery/replay attempt and how the defense answered it.
struct ProbeOutcome {
  std::string probe;    // stable label, e.g. "switch2-replay"
  std::string outcome;  // "accepted" | "timeout" | DrmError name
};

/// Node-id ranges for attacker actors, far above kClientBase so they can
/// never collide with honest clients or farm instances.
inline constexpr util::NodeId kAttackClientBase = 0x40000000;
inline constexpr util::NodeId kRoguePeerBase = 0x48000000;
inline constexpr util::NodeId kSybilBase = 0x50000000;

class AdversaryEngine final : public net::SendInterceptor {
 public:
  /// Does not attack anything yet; call arm() once the deployment is
  /// provisioned (events are scheduled at absolute transport times, so arm
  /// before running past the first one).
  AdversaryEngine(net::Deployment& deployment, AdversaryPlan plan,
                  AdversaryEngineConfig config = {});
  ~AdversaryEngine() override;

  AdversaryEngine(const AdversaryEngine&) = delete;
  AdversaryEngine& operator=(const AdversaryEngine&) = delete;

  /// Join the network's interceptor chain and schedule every plan event.
  /// Idempotent.
  void arm();

  const AdversaryPlan& plan() const { return plan_; }

  // net::SendInterceptor: wire capture (replay probes) + fuzz mutation.
  Verdict on_send(const net::SendContext& ctx) override;

  /// Human-readable record of every attack launched, in injection order.
  /// Deterministic on the sim backend; read only after the run on a live one.
  std::vector<std::string> log() const;

  // --- forgery / replay accounting -------------------------------------

  std::uint64_t probes_sent() const { return probes_sent_.value(); }
  /// Probes the services granted a ticket / session to. The abuse gate is
  /// this being zero.
  std::uint64_t probes_accepted() const { return probes_accepted_.value(); }
  std::uint64_t probes_rejected() const { return probes_rejected_.value(); }
  std::uint64_t probes_timed_out() const { return probes_timed_out_.value(); }
  std::vector<ProbeOutcome> probe_outcomes() const;

  // --- fuzz accounting ---------------------------------------------------

  /// Packets this engine truncated or bit-flipped (Verdict::replace).
  std::uint64_t fuzz_mutations() const { return fuzz_mutations_.value(); }

  // --- overlay attacks ---------------------------------------------------

  const std::vector<std::unique_ptr<RoguePeer>>& rogues() const { return rogues_; }
  std::uint64_t sybil_attempted() const { return sybil_attempted_.value(); }
  /// Identities the tracker admitted (bounded by its Limits — ideally far
  /// below attempted).
  std::uint64_t sybil_admitted() const { return sybil_admitted_.value(); }
  std::uint64_t sybil_rejected() const { return sybil_rejected_.value(); }

  // --- credential-sharing ring -------------------------------------------

  /// Ring members (owned by the deployment; includes evicted ones).
  const std::vector<net::AsyncClient*>& ring() const { return ring_; }
  std::uint64_t ring_logins_ok() const { return ring_logins_ok_.value(); }
  std::uint64_t ring_switches_ok() const { return ring_switches_ok_.value(); }
  /// Renewal outcomes: at most one member may renew (the survivor); the
  /// rest must be refused — that refusal is the eviction.
  std::uint64_t ring_renewals_ok() const { return ring_renewals_ok_.value(); }
  std::uint64_t ring_renewals_refused() const { return ring_renewals_refused_.value(); }
  /// Per-member final state, ring order: "renewed" | "refused:<err>" |
  /// "login-failed:<err>" | "switch-failed:<err>" | "pending".
  std::vector<std::string> ring_outcomes() const;

 private:
  struct FuzzWindow {
    fault::AddrBlock scope;
    double rate = 0.0;
    util::SimTime until = 0;
  };
  /// State of one replay-probe chain (shared by its async continuations).
  struct ProbeRun;

  void apply(const AdversaryEvent& ev);
  void launch_replay_probe(const AdversaryEvent& ev);
  void run_probe_chain(std::shared_ptr<ProbeRun> run, std::size_t step);
  void launch_rogue_peers(const AdversaryEvent& ev);
  void launch_sybil_flood(const AdversaryEvent& ev);
  void launch_cred_share(const AdversaryEvent& ev);
  void note(const std::string& line);
  void record_probe(const std::string& probe, const net::Envelope* resp,
                    net::MsgKind expect);
  /// Corrupt `data` in place: truncate or bit-flip (caller holds mu_).
  util::Bytes corrupt_locked(const util::Bytes& data);

  net::Deployment& dep_;
  AdversaryPlan plan_;
  AdversaryEngineConfig config_;
  bool armed_ = false;

  /// Guards the fuzz windows, capture state, DRBG, log, and outcome lists:
  /// on_send runs concurrently from every sender loop on a live transport
  /// while apply() and probe callbacks run on control/actor loops.
  mutable std::mutex mu_;
  crypto::SecureRandom rng_;
  std::vector<FuzzWindow> fuzz_windows_;
  /// When set, on_send captures the next kSwitch2Request sent from this
  /// address (the victim's second switch round) verbatim.
  std::optional<util::NetAddr> capture_from_;
  std::optional<util::Bytes> captured_switch2_;
  std::vector<std::string> log_;
  std::vector<ProbeOutcome> probe_outcomes_;
  std::vector<std::string> ring_outcomes_;

  std::vector<std::unique_ptr<AttackClient>> attackers_;
  std::vector<std::unique_ptr<RoguePeer>> rogues_;
  std::vector<net::AsyncClient*> ring_;
  util::NodeId next_attacker_ = kAttackClientBase;
  util::NodeId next_rogue_ = kRoguePeerBase;
  util::NodeId next_sybil_ = kSybilBase;

  // The engine's accounting, held in the deployment registry under
  // "abuse.*" (resolved at construction; the registry outlives the engine).
  // The accessors above read these counters.
  obs::Counter& probes_sent_;            // abuse.probes.sent
  obs::Counter& probes_accepted_;        // abuse.probes.accepted
  obs::Counter& probes_rejected_;        // abuse.probes.rejected
  obs::Counter& probes_timed_out_;       // abuse.probes.timeout
  obs::Counter& fuzz_mutations_;         // abuse.fuzz.mutations
  obs::Counter& sybil_attempted_;        // abuse.sybil.attempted
  obs::Counter& sybil_admitted_;         // abuse.sybil.admitted
  obs::Counter& sybil_rejected_;         // abuse.sybil.rejected
  obs::Counter& ring_logins_ok_;         // abuse.ring.logins_ok
  obs::Counter& ring_switches_ok_;       // abuse.ring.switches_ok
  obs::Counter& ring_renewals_ok_;       // abuse.ring.survivors
  obs::Counter& ring_renewals_refused_;  // abuse.ring.evictions
};

}  // namespace p2pdrm::adversary
