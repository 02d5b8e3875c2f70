// Network frontends for the backend services: each node owns (or shares)
// a service object, parses request envelopes off the wire, runs the
// handler, and sends the response envelope back. Malformed packets are
// dropped (and counted under "server.drops{malformed}" when a registry is
// bound) — retries are the client's job.
//
// Handler processing time is modeled per request (the service objects
// compute instantly in-process; a real server would not), so end-to-end
// latencies over this network include both propagation and service time.
// With an OverloadPolicy set (set_overload_policy), requests additionally
// wait in a bounded c-worker queue before service, and admission control
// sheds excess load with kBusy responses — see net/overload.h.
#pragma once

#include <memory>

#include "net/envelope.h"
#include "net/network.h"
#include "net/overload.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "p2p/peer.h"
#include "services/channel_manager.h"
#include "services/channel_policy_manager.h"
#include "services/channel_server.h"
#include "services/redirection_manager.h"
#include "services/user_manager.h"

namespace p2pdrm::net {

/// Per-request-kind processing delay applied before a response leaves the
/// node. Zero by default (pure propagation).
struct ProcessingModel {
  util::SimTime light = 0;   // redirect, LOGIN1, SWITCH1, channel list
  util::SimTime heavy = 0;   // LOGIN2, SWITCH2 (RSA sign), JOIN
};

/// What the four manager frontends share: the wire endpoint, the modeled
/// processing delay, and the optional tracer, registry and overload queue.
class ServiceNode : public Node {
 public:
  /// Record a serve span per handled request (null to disable).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Count drops/sheds and export queue depth (null to disable).
  void set_registry(obs::Registry* registry) { registry_ = registry; }
  /// Install a bounded worker queue + admission control. A disabled policy
  /// (workers == 0) restores the legacy instantaneous model.
  void set_overload_policy(const OverloadPolicy& policy);
  const ServiceQueue* queue() const { return queue_.get(); }

 protected:
  ServiceNode(Network& network, util::NodeId self, ProcessingModel processing)
      : network_(network), self_(self), processing_(processing) {}

  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<ServiceQueue> queue_;
  Network& network_;
  util::NodeId self_;
  ProcessingModel processing_;
};

class RedirectionNode final : public ServiceNode {
 public:
  RedirectionNode(services::RedirectionManager& rm, Network& network,
                  util::NodeId self, ProcessingModel processing = {});
  void on_packet(const Packet& packet) override;

 private:
  services::RedirectionManager& rm_;
};

class UserManagerNode final : public ServiceNode {
 public:
  UserManagerNode(services::UserManager& um, Network& network, util::NodeId self,
                  ProcessingModel processing = {});
  void on_packet(const Packet& packet) override;

 private:
  services::UserManager& um_;
};

class ChannelPolicyNode final : public ServiceNode {
 public:
  ChannelPolicyNode(services::ChannelPolicyManager& cpm, Network& network,
                    util::NodeId self, ProcessingModel processing = {});
  void on_packet(const Packet& packet) override;

 private:
  services::ChannelPolicyManager& cpm_;
};

class ChannelManagerNode final : public ServiceNode {
 public:
  ChannelManagerNode(services::ChannelManager& cm, Network& network, util::NodeId self,
                     ProcessingModel processing = {});
  void on_packet(const Packet& packet) override;

 private:
  services::ChannelManager& cm_;
};

/// A peer in the overlay: answers joins and renewal presentations, relays
/// key blobs to children, forwards content packets down the tree, and
/// hands received content to an optional sink (the player).
class PeerNode : public Node {
 public:
  using ContentSink =
      std::function<void(const core::ContentPacket&, const std::optional<util::Bytes>&)>;
  /// Called after each accepted join with the new child and the updated
  /// child count (trackers subscribe to keep load fresh).
  using JoinObserver = std::function<void(util::NodeId child, std::size_t children)>;

  PeerNode(std::unique_ptr<p2p::Peer> peer, Network& network,
           ProcessingModel processing = {});

  void on_packet(const Packet& packet) override;

  p2p::Peer& peer() { return *peer_; }
  const p2p::Peer& peer() const { return *peer_; }
  util::NodeId id() const { return peer_->config().node; }

  void set_content_sink(ContentSink sink) { content_sink_ = std::move(sink); }
  /// Record a serve span per handled join/renewal (null to disable).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Count malformed-packet drops (null to disable).
  void set_registry(obs::Registry* registry) { registry_ = registry; }
  void set_join_observer(JoinObserver observer) { join_observer_ = std::move(observer); }

  /// Push a key blob to every child (root use; relays do it on receipt).
  /// `request_id` stamps every blob of this epoch so the trace interceptor
  /// and relay spans can correlate the whole fan-out under one rotation
  /// span (0 = untraced legacy announcements).
  void announce_key(const core::ContentKey& key, std::uint64_t request_id = 0);
  /// Encrypt nothing — forward an already-encrypted packet to all children.
  void forward_content(const core::ContentPacket& packet);

  std::uint64_t content_received() const { return content_received_; }
  std::uint64_t keys_relayed() const { return keys_relayed_; }

 protected:
  Network& network() { return network_; }

 private:
  std::unique_ptr<p2p::Peer> peer_;
  Network& network_;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  ProcessingModel processing_;
  ContentSink content_sink_;
  JoinObserver join_observer_;
  std::uint64_t content_received_ = 0;
  std::uint64_t keys_relayed_ = 0;
  /// Epoch request id whose relay span this node last bound (so the next
  /// epoch can release the binding — hop-fate callbacks resolve at arrival
  /// time, after on_packet returns, so unbinding inline would orphan them).
  std::uint64_t bound_epoch_ = 0;
};

}  // namespace p2pdrm::net
