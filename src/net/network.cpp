#include "net/network.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/flight_recorder.h"
#include "transport/sim_transport.h"

namespace p2pdrm::net {

Network::Counters::Counters(obs::Registry& registry)
    : sent(registry.counter("net.packets.sent")),
      dropped_injected(registry.counter("net.packets.dropped.injected")),
      dropped_link(registry.counter("net.packets.dropped.link")),
      dropped_no_dest(registry.counter("net.packets.dropped.no_destination")),
      delivered(registry.counter("net.packets.delivered")),
      mutated(registry.counter("net.packets.mutated")) {}

Network::Network(sim::Simulation& sim, LinkConfig default_link,
                 crypto::SecureRandom rng, obs::Registry* registry)
    : owned_transport_(std::make_unique<transport::SimTransport>(sim)),
      transport_(owned_transport_.get()),
      sim_(&sim),
      default_link_(default_link),
      rng_(std::move(rng)),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>() : nullptr),
      counters_(registry == nullptr ? *owned_registry_ : *registry) {}

Network::Network(transport::Transport& transport, LinkConfig default_link,
                 crypto::SecureRandom rng, obs::Registry* registry)
    : transport_(&transport),
      default_link_(default_link),
      rng_(std::move(rng)),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>() : nullptr),
      counters_(registry == nullptr ? *owned_registry_ : *registry) {
  if (auto* sim_backend = dynamic_cast<transport::SimTransport*>(&transport)) {
    sim_ = &sim_backend->sim();
  }
}

Network::~Network() = default;

sim::Simulation& Network::sim() const {
  if (sim_ == nullptr) {
    std::fprintf(stderr,
                 "Network::sim() called on a live transport backend; "
                 "use now()/post() instead\n");
    std::abort();
  }
  return *sim_;
}

void Network::attach(util::NodeId id, util::NetAddr addr, Node* node) {
  std::unique_lock<std::shared_mutex> lk(tables_mu_);
  const auto old = nodes_.find(id);
  if (old != nodes_.end()) by_addr_.erase(old->second.addr.ip);
  nodes_[id] = Binding{addr, node, std::nullopt};
  by_addr_[addr.ip] = id;
}

void Network::detach(util::NodeId id) {
  std::unique_lock<std::shared_mutex> lk(tables_mu_);
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  by_addr_.erase(it->second.addr.ip);
  nodes_.erase(it);
}

bool Network::attached(util::NodeId id) const {
  std::shared_lock<std::shared_mutex> lk(tables_mu_);
  return nodes_.contains(id);
}

void Network::set_link(util::NodeId id, LinkConfig link) {
  std::unique_lock<std::shared_mutex> lk(tables_mu_);
  const auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.link = link;
}

LinkConfig Network::link_of_locked(util::NodeId id) const {
  const auto it = nodes_.find(id);
  if (it != nodes_.end() && it->second.link) return *it->second.link;
  return default_link_;
}

std::shared_ptr<const Network::Chain> Network::chain_snapshot() const {
  std::lock_guard<std::mutex> lk(chain_mu_);
  return interceptors_;
}

void Network::add_interceptor(SendInterceptor* interceptor) {
  if (interceptor == nullptr) return;
  std::lock_guard<std::mutex> lk(chain_mu_);
  if (std::find(interceptors_->begin(), interceptors_->end(), interceptor) !=
      interceptors_->end()) {
    return;
  }
  auto next = std::make_shared<Chain>(*interceptors_);
  next->push_back(interceptor);
  interceptors_ = std::move(next);
}

void Network::remove_interceptor(SendInterceptor* interceptor) {
  std::lock_guard<std::mutex> lk(chain_mu_);
  if (std::find(interceptors_->begin(), interceptors_->end(), interceptor) ==
      interceptors_->end()) {
    return;
  }
  auto next = std::make_shared<Chain>(*interceptors_);
  next->erase(std::remove(next->begin(), next->end(), interceptor),
              next->end());
  interceptors_ = std::move(next);
}

std::vector<SendInterceptor*> Network::interceptors() const {
  return *chain_snapshot();
}

void Network::notify_fate(const std::shared_ptr<const Chain>& chain,
                          const SendContext& ctx, PacketFate fate,
                          util::SimTime delay) {
  for (SendInterceptor* interceptor : *chain) {
    interceptor->on_packet_fate(ctx, fate, delay);
  }
}

void Network::set_clock_skew(util::NodeId id, util::SimTime skew) {
  std::unique_lock<std::shared_mutex> lk(tables_mu_);
  if (skew == 0) {
    clock_skew_.erase(id);
  } else {
    clock_skew_[id] = skew;
  }
}

util::SimTime Network::local_time(util::NodeId id) const {
  std::shared_lock<std::shared_mutex> lk(tables_mu_);
  const auto it = clock_skew_.find(id);
  return transport_->now() + (it == clock_skew_.end() ? 0 : it->second);
}

void Network::send(util::NodeId from, util::NodeId to, Buffer data) {
  counters_.sent.inc();
  // Post-mortem breadcrumb; a single relaxed load when the recorder is
  // disarmed (the default).
  obs::FlightRecorder::global().record("net.send", from, to);

  util::NetAddr from_addr;
  util::NetAddr to_addr;
  LinkConfig out_link;
  LinkConfig in_link;
  {
    std::shared_lock<std::shared_mutex> lk(tables_mu_);
    const auto sender = nodes_.find(from);
    if (sender != nodes_.end()) from_addr = sender->second.addr;
    const auto receiver = nodes_.find(to);
    if (receiver != nodes_.end()) to_addr = receiver->second.addr;
    out_link = link_of_locked(from);
    in_link = link_of_locked(to);
  }

  SendContext ctx{from, from_addr, to,          to_addr,
                  transport_->now(), data.get(), data->size()};

  // The interceptor chain sees the packet before the link's own loss model,
  // so partition drops are counted separately from ambient loss. Every
  // interceptor is consulted even after one votes to drop — trace capture
  // must see the packet regardless of the fault engine's verdict. The chain
  // is a snapshot: concurrent add/remove swaps a new chain in, and this
  // send finishes on the one it started with.
  const std::shared_ptr<const Chain> chain = chain_snapshot();
  SendInterceptor::Verdict combined;
  for (SendInterceptor* interceptor : *chain) {
    SendInterceptor::Verdict v = interceptor->on_send(ctx);
    combined.drop = combined.drop || v.drop;
    combined.extra_delay += v.extra_delay;
    if (v.replace) {
      // In-flight payload rewrite (the adversary fuzzer's corruption seam):
      // interceptors later in the chain and the receiver see the mutated
      // bytes. The original payload is gone, as it would be on a real wire;
      // the buffer it came in stays intact for the sends that share it.
      data = std::make_shared<const util::Bytes>(std::move(*v.replace));
      ctx.data = data.get();
      ctx.bytes = data->size();
      counters_.mutated.inc();
      obs::FlightRecorder::global().record("net.mutate", from, to);
    }
  }
  if (combined.drop) {
    counters_.dropped_injected.inc();
    obs::FlightRecorder::global().record("net.drop", from, to, "injected");
    notify_fate(chain, ctx, PacketFate::kInterceptorDropped,
                combined.extra_delay);
    return;
  }

  // Path properties combine both endpoints' access links. The rng draws —
  // loss first, then the two half-RTTs — happen in the historical order so
  // sim-backed runs stay byte-identical with the pre-seam engine.
  const double loss = 1.0 - (1.0 - out_link.loss) * (1.0 - in_link.loss);
  bool link_dropped = false;
  util::SimTime delay = 0;
  {
    std::lock_guard<std::mutex> lk(rng_mu_);
    if (loss > 0 && rng_.chance(loss)) {
      link_dropped = true;
    } else {
      delay = combined.extra_delay + out_link.latency.sample_rtt(rng_) / 2 +
              in_link.latency.sample_rtt(rng_) / 2;
    }
  }
  if (link_dropped) {
    counters_.dropped_link.inc();
    obs::FlightRecorder::global().record("net.drop", from, to, "link");
    notify_fate(chain, ctx, PacketFate::kLinkDropped, combined.extra_delay);
    return;
  }
  notify_fate(chain, ctx, PacketFate::kInFlight, delay);

  // Delivery runs on the destination's group loop, serialized with every
  // other delivery and timer of that node.
  Packet packet{from, from_addr, to, std::move(data)};
  transport_->post(group_of(to), delay, [this, to_addr, delay,
                                         packet = std::move(packet)] {
    SendContext arrival{packet.from, packet.from_addr, packet.to,
                        to_addr,     transport_->now(), packet.buffer.get(),
                        packet.buffer->size()};
    const std::shared_ptr<const Chain> arrival_chain = chain_snapshot();
    Node* node = nullptr;
    {
      std::shared_lock<std::shared_mutex> lk(tables_mu_);
      const auto it = nodes_.find(packet.to);
      if (it != nodes_.end()) node = it->second.node;
    }
    if (node == nullptr) {
      counters_.dropped_no_dest.inc();
      obs::FlightRecorder::global().record("net.drop", packet.from, packet.to,
                                           "no_destination");
      notify_fate(arrival_chain, arrival, PacketFate::kNoDestination, delay);
      return;
    }
    counters_.delivered.inc();
    notify_fate(arrival_chain, arrival, PacketFate::kDelivered, delay);
    // Outside the table lock: on_packet may send(), attach(), detach().
    // Safe against detach-then-delete because a node is only detached from
    // its own group loop, which is where this delivery runs.
    node->on_packet(packet);
  });
}

std::optional<util::NetAddr> Network::addr_of(util::NodeId id) const {
  std::shared_lock<std::shared_mutex> lk(tables_mu_);
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.addr;
}

std::optional<util::NodeId> Network::node_at(util::NetAddr addr) const {
  std::shared_lock<std::shared_mutex> lk(tables_mu_);
  const auto it = by_addr_.find(addr.ip);
  if (it == by_addr_.end()) return std::nullopt;
  return it->second;
}

}  // namespace p2pdrm::net
