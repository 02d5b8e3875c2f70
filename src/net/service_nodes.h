// Network frontends for the backend services. Every manager request round
// (redirect, LOGIN1/2, channel list, SWITCH1/2) and a peer's JOIN is the same
// exchange: decode the request, run the manager's handler, record a serve
// span, send the response envelope back. One routine does that for every
// kind; a ServiceNode differs from another only in its route table. Each
// served request's verdict is counted once, under "server.outcome{kind:
// outcome}" — the farm-wide view of a logical manager (§V). Malformed
// packets are dropped and counted under "server.drops{malformed}" —
// retries are the client's job.
//
// Handler processing time is modeled per request (the service objects
// compute instantly in-process; a real server would not), so end-to-end
// latencies over this network include both propagation and service time.
// With an enabled OverloadPolicy, requests additionally wait in a bounded
// c-worker queue before service, and admission control sheds excess load
// with kBusy responses — see net/overload.h.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

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

/// What a handler hands back: the encoded response and the verdict that
/// tags the serve span ("ok" marks it successful).
struct Reply {
  util::Bytes payload;
  std::string_view outcome;
};

/// One request kind a node answers: decode the payload (throwing
/// util::WireError on garbage), call the manager at the node's local time,
/// encode the response of kind `response` after the `tier` delay.
struct Route {
  using Handler = std::function<Reply(const Packet& packet, util::BytesView payload,
                                      util::SimTime local_now)>;
  MsgKind request;
  MsgKind response;
  util::SimTime ProcessingModel::*tier;
  Handler handle;
};

/// The route tables of the four manager frontends.
std::vector<Route> redirection_routes(services::RedirectionManager& rm);
std::vector<Route> user_manager_routes(services::UserManager& um);
std::vector<Route> channel_policy_routes(services::ChannelPolicyManager& cpm);
std::vector<Route> channel_manager_routes(services::ChannelManager& cm);

/// The counter a ServiceNode bumps once per served request, by request
/// kind and handler verdict: "server.outcome{login1-req:ok}". Shed and
/// malformed requests are not served, so they are not counted here.
std::string outcome_metric(MsgKind request, std::string_view outcome);

/// A registry metric looked up on its first use and held after. It appears
/// in scrapes only once its event has happened, while later events skip
/// the registry lock. Not thread-safe: owned by a loop-confined node.
template <typename Metric>
class LazyMetric {
 public:
  explicit LazyMetric(std::string name) : name_(std::move(name)) {}
  Metric& in(obs::Registry& registry) {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<Metric, obs::Gauge>) {
        metric_ = &registry.gauge(name_);
      } else {
        metric_ = &registry.counter(name_);
      }
    }
    return *metric_;
  }

 private:
  std::string name_;
  Metric* metric_ = nullptr;
};

/// A manager frontend: the wire endpoint in front of one manager, serving
/// the request kinds of its route table. Kinds it has no route for are
/// ignored (not for this node), not counted as malformed.
class ServiceNode final : public Node {
 public:
  /// `registry` receives the outcome, drop, shed and queue-depth metrics. A disabled
  /// `overload` policy (workers == 0) serves every request on arrival.
  ServiceNode(Network& network, util::NodeId self, std::vector<Route> routes,
              obs::Registry& registry, ProcessingModel processing = {},
              const OverloadPolicy& overload = {});

  void on_packet(const Packet& packet) override;
  /// Record a serve span per handled request (null to disable).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Served {
    Route route;
    LazyMetric<obs::Counter> shed;  // server.shed{kind}
    /// server.outcome{kind:outcome}, each resolved on its first use.
    std::vector<std::pair<std::string, obs::Counter*>> outcomes;
  };

  void admit_or_shed(const Packet& packet, const EnvelopeView& env, Served& served);
  void serve(const Packet& packet, const EnvelopeView& env, Served& served);
  obs::Counter& outcome_counter(Served& served, std::string_view outcome);

  Network& network_;
  util::NodeId self_;
  std::vector<Served> routes_;
  obs::Registry& registry_;
  ProcessingModel processing_;
  std::unique_ptr<ServiceQueue> queue_;
  obs::Tracer* tracer_ = nullptr;
  LazyMetric<obs::Counter> malformed_{"server.drops{malformed}"};
  LazyMetric<obs::Counter> busy_sent_{"server.busy_sent"};
  LazyMetric<obs::Gauge> depth_;  // server.queue.depth{self}
};

/// A peer in the overlay: answers joins and renewal presentations, relays
/// key blobs to children, forwards content packets down the tree, and
/// hands received content to an optional sink (the player). A relay sends
/// its children the buffer it received, unchanged: content is encrypted
/// once, at the source, and only key blobs are re-wrapped per link.
class PeerNode : public Node {
 public:
  /// Receives each content packet (a view into the received buffer) and its
  /// plaintext, decrypted into a buffer the sink now owns (nullopt without
  /// the packet's key).
  using ContentSink =
      std::function<void(const core::ContentPacketView&, std::optional<util::Bytes>)>;
  /// Called after each accepted join with the new child and the updated
  /// child count (trackers subscribe to keep load fresh).
  using JoinObserver = std::function<void(util::NodeId child, std::size_t children)>;

  PeerNode(std::unique_ptr<p2p::Peer> peer, Network& network,
           ProcessingModel processing = {});

  void on_packet(const Packet& packet) override;
  /// on_packet for a caller that has decoded the envelope already (the
  /// client this node is embedded in). `env` points into `packet`.
  void on_envelope(const Packet& packet, const EnvelopeView& env);

  p2p::Peer& peer() { return *peer_; }
  const p2p::Peer& peer() const { return *peer_; }
  util::NodeId id() const { return peer_->config().node; }

  void set_content_sink(ContentSink sink) { content_sink_ = std::move(sink); }
  /// Record a serve span per handled join/renewal (null to disable).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Count malformed-packet drops (null to disable; set before traffic).
  void set_registry(obs::Registry* registry) { registry_ = registry; }
  void set_join_observer(JoinObserver observer) { join_observer_ = std::move(observer); }

  /// Push a key blob to every child (root use; relays do it on receipt).
  /// `request_id` stamps every blob of this epoch so the trace interceptor
  /// and relay spans can correlate the whole fan-out under one rotation
  /// span (0 = untraced legacy announcements).
  void announce_key(const core::ContentKey& key, std::uint64_t request_id = 0);
  /// Root use: encode an already-encrypted packet once and send that one
  /// buffer to every subscribed child.
  void forward_content(const core::ContentPacket& packet);

  std::uint64_t content_received() const { return content_received_; }
  std::uint64_t keys_relayed() const { return keys_relayed_; }

 protected:
  Network& network() { return network_; }

 private:
  void count_malformed() {
    if (registry_ != nullptr) malformed_.in(*registry_).inc();
  }
  /// Send `wire`, a content envelope, to the children subscribed to `seq`.
  void fan_out(const Buffer& wire, std::uint64_t seq);

  std::unique_ptr<p2p::Peer> peer_;
  Network& network_;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  LazyMetric<obs::Counter> malformed_{"server.drops{malformed}"};
  ProcessingModel processing_;
  Route join_route_;
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
