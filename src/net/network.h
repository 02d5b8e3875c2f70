// Datagram network: unreliable, latency-injected, transport-backed.
//
// Nodes attach with an id and an address; send() schedules delivery through
// a Transport backend with a sampled one-way delay, or drops the packet with
// the configured loss probability (independently per packet — the client's
// retry logic is what makes the protocols robust, exactly as over UDP).
// Per-node access links can override the default latency/loss.
//
// The backend is swappable (the Transport seam): SimTransport replays the
// historical discrete-event behaviour byte-for-byte — same rng call order,
// same schedule order — while ThreadTransport delivers over real event-loop
// threads with monotonic-clock timers. Protocol code above this class is
// identical on both.
//
// Thread safety (live backend): the attach/detach/link/skew tables sit
// behind a shared mutex, packet counters are registry counters (atomics),
// the rng is mutexed (loss and latency sampling), and the interceptor chain
// is copy-on-write — add/remove swap a new snapshot in while in-flight
// send() calls keep iterating the old one (the historical add-vs-send race). Delivery for
// node X is posted to X's transport group, so a node's on_packet calls are
// serialized; detach/attach of X must likewise run on X's group loop when
// the transport is live.
//
// Packet buffers: a datagram's bytes live in one immutable, shared Buffer
// from the send to the last receiver. Sends that carry the same bytes share
// it — a relay's fan-out to its children, a request's retransmissions — and
// no loop ever writes to it, so any loop may read it without a lock. An
// interceptor's Verdict::replace swaps a new buffer into that one send
// only; every other send of the old buffer carries the old bytes. Decoded
// views (EnvelopeView, core::ContentPacketView) point into the buffer and
// live as long as the Packet, or a copy of it, that holds the buffer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "crypto/chacha20.h"
#include "obs/registry.h"
#include "sim/latency.h"
#include "sim/simulation.h"
#include "transport/transport.h"
#include "util/ids.h"

namespace p2pdrm::net {

/// A datagram's bytes, immutable and shared by every send that carries
/// them (see the header comment).
using Buffer = std::shared_ptr<const util::Bytes>;

struct Packet {
  util::NodeId from = util::kInvalidNode;
  util::NetAddr from_addr;
  util::NodeId to = util::kInvalidNode;
  Buffer buffer;

  const util::Bytes& data() const { return *buffer; }
};

/// Something attached to the network.
class Node {
 public:
  virtual ~Node() = default;
  virtual void on_packet(const Packet& packet) = 0;
};

struct LinkConfig {
  sim::LatencyModel latency;  // RTT model; one-way = sample/2
  double loss = 0.0;          // per-packet drop probability
};

/// Everything an interceptor can know about a packet without owning it.
/// `data` stays valid only for the duration of the callback.
struct SendContext {
  util::NodeId from = util::kInvalidNode;
  util::NetAddr from_addr;
  util::NodeId to = util::kInvalidNode;
  util::NetAddr to_addr;
  util::SimTime now = 0;           // send time, or arrival time for the
                                   // kDelivered / kNoDestination callbacks
  const util::Bytes* data = nullptr;
  std::size_t bytes = 0;
};

/// How a send() resolved, reported to every interceptor via on_packet_fate.
enum class PacketFate {
  kInterceptorDropped,  // some interceptor in the chain dropped it
  kLinkDropped,         // the links' own loss model dropped it
  kInFlight,            // scheduled for delivery (delay = one-way latency)
  kDelivered,           // arrived; receiver's on_packet ran
  kNoDestination,       // arrived but the destination had detached
};

/// Injection seam consulted on every send(), in installation order, before
/// the link's own loss/latency model. The fault subsystem implements this to
/// model partitions, loss bursts, and latency spikes; the observability
/// subsystem implements it to trace packet hops. Every interceptor sees
/// every packet — verdicts combine across the chain (drop = any, delay =
/// sum) — and every interceptor hears the packet's final fate, including
/// drops decided by *other* interceptors. On a live transport, on_send and
/// on_packet_fate are called concurrently from many loops: implementations
/// must synchronize their own state.
class SendInterceptor {
 public:
  struct Verdict {
    bool drop = false;
    util::SimTime extra_delay = 0;  // added to the sampled one-way delay
    // When set, the packet's payload is replaced before it continues down
    // the chain and onto the wire — the corruption seam the adversary
    // fuzzer uses to truncate/bit-flip live traffic. Later interceptors
    // (and the receiver) see the mutated bytes; counted as
    // net.packets.mutated. The new bytes go into a new buffer for this send
    // only: other sends sharing the old buffer are untouched.
    std::optional<util::Bytes> replace;
  };

  virtual ~SendInterceptor() = default;
  virtual Verdict on_send(const SendContext& ctx) = 0;
  /// Called once when the send resolves (dropped or in flight; for in-flight
  /// packets `delay` is the total one-way delay), and again on arrival with
  /// kDelivered or kNoDestination. Default: ignore.
  virtual void on_packet_fate(const SendContext& ctx, PacketFate fate,
                              util::SimTime delay) {
    (void)ctx;
    (void)fate;
    (void)delay;
  }
};

class Network {
 public:
  /// Sim-backed: owns a SimTransport over `sim`; behaviour (event order,
  /// rng draws, traces) is byte-identical with the pre-seam engine.
  /// Packet counters (net.packets.*) live in `registry`, which must outlive
  /// the network; without one the network counts into a registry of its own.
  Network(sim::Simulation& sim, LinkConfig default_link, crypto::SecureRandom rng,
          obs::Registry* registry = nullptr);
  /// Explicit backend (not owned; must outlive the network).
  Network(transport::Transport& transport, LinkConfig default_link,
          crypto::SecureRandom rng, obs::Registry* registry = nullptr);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attach a node (replaces any previous binding of the id).
  void attach(util::NodeId id, util::NetAddr addr, Node* node);
  /// Detach: in-flight packets to this node are dropped on arrival.
  void detach(util::NodeId id);
  bool attached(util::NodeId id) const;

  /// Override the access link of one node (both directions use the worse
  /// half of each endpoint's link: delay adds, loss combines).
  void set_link(util::NodeId id, LinkConfig link);

  /// Fire-and-forget datagram. Packets to unknown destinations vanish
  /// (like the real Internet). The buffer is shared, not copied: pass the
  /// same one to every destination that gets the same bytes.
  void send(util::NodeId from, util::NodeId to, Buffer data);
  /// Send bytes built for this one send (moved into a new buffer).
  void send(util::NodeId from, util::NodeId to, util::Bytes data) {
    send(from, to, std::make_shared<const util::Bytes>(std::move(data)));
  }

  std::optional<util::NetAddr> addr_of(util::NodeId id) const;
  /// Reverse lookup (exact address match).
  std::optional<util::NodeId> node_at(util::NetAddr addr) const;

  /// Append an interceptor to the chain (not owned). Consulted in
  /// installation order on every send. No-op if already installed.
  /// Safe against concurrent send() calls: in-flight sends finish on the
  /// chain they snapshotted.
  void add_interceptor(SendInterceptor* interceptor);
  /// Remove from the chain; safe to call for an absent interceptor. The
  /// interceptor may still hear callbacks from sends already in flight —
  /// keep it alive until the transport quiesces.
  void remove_interceptor(SendInterceptor* interceptor);
  /// Snapshot of the current chain, in installation order.
  std::vector<SendInterceptor*> interceptors() const;

  /// Clock skew: a node's local clock reads now() + skew. Servers stamp
  /// and validate tickets against their *local* clock, so a skewed manager
  /// misjudges expiry times — a classic production fault.
  void set_clock_skew(util::NodeId id, util::SimTime skew);
  /// The node's local wall clock (transport time for nodes without skew).
  util::SimTime local_time(util::NodeId id) const;

  // --- transport surface -------------------------------------------------

  transport::Transport& transport() { return *transport_; }
  const transport::Transport& transport() const { return *transport_; }
  /// Current transport time (virtual µs on sim, monotonic µs live).
  util::SimTime now() const { return transport_->now(); }
  /// True on a real-threaded backend (timing is wall-clock, not virtual).
  bool live() const { return transport_->live(); }
  /// The transport group (event loop) that owns a node's deliveries and
  /// timers. All state of node `id` is confined to this group.
  std::size_t group_of(util::NodeId id) const {
    return static_cast<std::size_t>(id) % transport_->groups();
  }
  /// Run `fn` on `owner`'s group loop after `delay` — the one scheduling
  /// primitive protocol code should use for timers, so the callback is
  /// serialized with the node's packet deliveries on both backends.
  transport::TimerId post(util::NodeId owner, util::SimTime delay, transport::Task fn) {
    return transport_->post(group_of(owner), delay, std::move(fn));
  }
  /// Drop a timer of `owner`'s whose task has become a no-op (see
  /// transport::Transport::release).
  void release(util::NodeId owner, transport::TimerId id) {
    transport_->release(group_of(owner), id);
  }

  /// The simulation under a sim-backed network. Aborts on a live backend —
  /// callers that can run on either must use now()/post() instead.
  sim::Simulation& sim() const;

  std::uint64_t packets_sent() const { return counters_.sent.value(); }
  std::uint64_t packets_dropped() const {
    return packets_dropped_injected() + packets_dropped_link() +
           packets_dropped_no_destination();
  }
  std::uint64_t packets_delivered() const { return counters_.delivered.value(); }

  // Drop-cause split: interceptor-injected vs the links' own loss model vs
  // destination gone by arrival time.
  std::uint64_t packets_dropped_injected() const {
    return counters_.dropped_injected.value();
  }
  std::uint64_t packets_dropped_link() const { return counters_.dropped_link.value(); }
  std::uint64_t packets_dropped_no_destination() const {
    return counters_.dropped_no_dest.value();
  }
  /// Packets whose payload an interceptor rewrote in flight (Verdict::replace).
  std::uint64_t packets_mutated() const { return counters_.mutated.value(); }

 private:
  struct Binding {
    util::NetAddr addr;
    Node* node = nullptr;
    std::optional<LinkConfig> link;
  };

  using Chain = std::vector<SendInterceptor*>;

  std::shared_ptr<const Chain> chain_snapshot() const;
  void notify_fate(const std::shared_ptr<const Chain>& chain,
                   const SendContext& ctx, PacketFate fate,
                   util::SimTime delay);
  LinkConfig link_of_locked(util::NodeId id) const;

  // Backend: either owned (sim ctor) or borrowed (transport ctor). sim_ is
  // null on a live backend.
  std::unique_ptr<transport::Transport> owned_transport_;
  transport::Transport* transport_ = nullptr;
  sim::Simulation* sim_ = nullptr;

  LinkConfig default_link_;

  mutable std::mutex rng_mu_;
  crypto::SecureRandom rng_;

  /// Guards nodes_, by_addr_, clock_skew_. Skews live outside the bindings:
  /// a crashed (detached) node keeps its wrong clock across a restart,
  /// exactly like real broken hardware.
  mutable std::shared_mutex tables_mu_;
  std::map<util::NodeId, Binding> nodes_;
  std::map<std::uint32_t, util::NodeId> by_addr_;
  std::map<util::NodeId, util::SimTime> clock_skew_;

  /// Copy-on-write interceptor chain: mutators build a new vector and swap
  /// the pointer under chain_mu_; readers take a shared_ptr snapshot.
  mutable std::mutex chain_mu_;
  std::shared_ptr<const Chain> interceptors_ = std::make_shared<Chain>();

  /// The packet counters (net.packets.*). They live in the registry and
  /// are atomics, so bumping them is thread-safe.
  struct Counters {
    explicit Counters(obs::Registry& registry);
    obs::Counter& sent;
    obs::Counter& dropped_injected;
    obs::Counter& dropped_link;
    obs::Counter& dropped_no_dest;
    obs::Counter& delivered;
    obs::Counter& mutated;
  };
  /// Set when no registry was given at construction.
  std::unique_ptr<obs::Registry> owned_registry_;
  Counters counters_;
};

}  // namespace p2pdrm::net
