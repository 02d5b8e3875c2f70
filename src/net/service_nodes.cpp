#include "net/service_nodes.h"

#include <algorithm>

#include "obs/flight_recorder.h"

namespace p2pdrm::net {

namespace {

/// Send `payload` as a response envelope after the node's processing delay.
void respond_after(Network& network, util::NodeId self, util::NodeId to,
                   MsgKind kind, std::uint64_t request_id, util::Bytes payload,
                   util::SimTime processing) {
  Envelope reply;
  reply.kind = kind;
  reply.request_id = request_id;
  reply.payload = std::move(payload);
  util::Bytes wire = reply.encode();
  if (processing <= 0) {
    network.send(self, to, std::move(wire));
    return;
  }
  network.post(self, processing, [&network, self, to, wire = std::move(wire)]() mutable {
    // An instance that crashed while the request was in service loses its
    // in-flight state: the half-finished response never leaves the box.
    if (!network.attached(self)) return;
    network.send(self, to, std::move(wire));
  });
}

/// Record the span of one served request: parented to the client attempt
/// that sent it (via the tracer's request-binding table), covering
/// [start, now + processing] — the handler's real run time (zero on the
/// sim backend) plus the modeled processing delay. `outcome` tags the
/// handler's verdict.
void trace_serve(obs::Tracer* tracer, Network& network, util::NodeId self,
                 const Packet& packet, const EnvelopeView& env, util::SimTime start,
                 util::SimTime processing, std::string_view outcome) {
  if (tracer == nullptr) return;
  const obs::SpanId parent = tracer->bound_request(packet.from, env.request_id);
  const obs::SpanId span =
      tracer->begin_span("server", "serve " + std::string(to_string(env.kind)),
                         self, start, parent);
  tracer->tag(span, "from", std::to_string(packet.from));
  tracer->tag(span, "outcome", std::string(outcome));
  tracer->end_span(span, network.now() + processing, outcome == "ok");
}

/// The one request-serving routine: decode, handle, serve span, respond.
/// Returns the handler's verdict, or nullopt when the request did not
/// decode (the caller counts it as malformed; nothing is sent).
std::optional<std::string_view> serve_request(Network& network, util::NodeId self,
                                              obs::Tracer* tracer,
                                              const ProcessingModel& processing,
                                              const Route& route, const Packet& packet,
                                              const EnvelopeView& env) {
  const util::SimTime start = network.now();
  Reply reply;
  try {
    reply = route.handle(packet, env.payload, network.local_time(self));
  } catch (const util::WireError&) {
    return std::nullopt;
  }
  const util::SimTime delay = processing.*route.tier;
  trace_serve(tracer, network, self, packet, env, start, delay, reply.outcome);
  respond_after(network, self, packet.from, route.response, env.request_id,
                std::move(reply.payload), delay);
  return reply.outcome;
}

std::string_view outcome_of(const services::RedirectResponse& resp) {
  return resp.found ? "ok" : "unknown-user";
}
template <typename Response>
std::string_view outcome_of(const Response& resp) {
  return core::to_string(resp.error);
}

/// A route whose manager call takes the decoded `Request` (plus the packet
/// and the local time) and returns a response.
template <typename Request, typename Call>
Route route(MsgKind request, MsgKind response, util::SimTime ProcessingModel::*tier,
            Call call) {
  return Route{request, response, tier,
               [call](const Packet& packet, util::BytesView payload, util::SimTime now) {
                 const auto resp = call(Request::decode(payload), packet, now);
                 return Reply{resp.encode(), outcome_of(resp)};
               }};
}

/// Fresh admissions are the sheddable tier: a shed LOGIN costs one viewer a
/// delayed start, a shed renewal/SWITCH costs an existing viewer their
/// session (§II — session continuity beats new admissions).
bool sheddable_kind(MsgKind kind) {
  return kind == MsgKind::kLogin1Request || kind == MsgKind::kLogin2Request;
}

}  // namespace

std::string outcome_metric(MsgKind request, std::string_view outcome) {
  return "server.outcome{" + std::string(to_string(request)) + ":" +
         std::string(outcome) + "}";
}

std::vector<Route> redirection_routes(services::RedirectionManager& rm) {
  return {route<services::RedirectRequest>(
      MsgKind::kRedirectRequest, MsgKind::kRedirectResponse, &ProcessingModel::light,
      [&rm](const auto& req, const Packet&, util::SimTime) {
        return rm.handle_lookup(req);
      })};
}

std::vector<Route> user_manager_routes(services::UserManager& um) {
  return {
      route<core::Login1Request>(
          MsgKind::kLogin1Request, MsgKind::kLogin1Response, &ProcessingModel::light,
          [&um](const auto& req, const Packet& packet, util::SimTime now) {
            return um.handle_login1(req, packet.from_addr, now);
          }),
      route<core::Login2Request>(
          MsgKind::kLogin2Request, MsgKind::kLogin2Response, &ProcessingModel::heavy,
          [&um](const auto& req, const Packet& packet, util::SimTime now) {
            return um.handle_login2(req, packet.from_addr, now);
          })};
}

std::vector<Route> channel_policy_routes(services::ChannelPolicyManager& cpm) {
  return {route<core::ChannelListRequest>(
      MsgKind::kChannelListRequest, MsgKind::kChannelListResponse,
      &ProcessingModel::light, [&cpm](const auto& req, const Packet&, util::SimTime now) {
        return cpm.handle_channel_list(req, now);
      })};
}

std::vector<Route> channel_manager_routes(services::ChannelManager& cm) {
  return {
      route<core::Switch1Request>(
          MsgKind::kSwitch1Request, MsgKind::kSwitch1Response, &ProcessingModel::light,
          [&cm](const auto& req, const Packet& packet, util::SimTime now) {
            return cm.handle_switch1(req, packet.from_addr, now);
          }),
      route<core::Switch2Request>(
          MsgKind::kSwitch2Request, MsgKind::kSwitch2Response, &ProcessingModel::heavy,
          [&cm](const auto& req, const Packet& packet, util::SimTime now) {
            return cm.handle_switch2(req, packet.from_addr, now);
          })};
}

ServiceNode::ServiceNode(Network& network, util::NodeId self, std::vector<Route> routes,
                         obs::Registry& registry, ProcessingModel processing,
                         const OverloadPolicy& overload)
    : network_(network),
      self_(self),
      registry_(registry),
      processing_(processing),
      queue_(overload.enabled() ? std::make_unique<ServiceQueue>(overload) : nullptr),
      depth_("server.queue.depth{" + std::to_string(self) + "}") {
  for (Route& r : routes) {
    std::string shed = "server.shed{" + std::string(to_string(r.request)) + "}";
    routes_.push_back(Served{std::move(r), LazyMetric<obs::Counter>(std::move(shed)), {}});
  }
}

void ServiceNode::on_packet(const Packet& packet) {
  const auto env = EnvelopeView::decode(packet.data());
  if (!env) {
    malformed_.in(registry_).inc();
    return;
  }
  const auto it = std::find_if(routes_.begin(), routes_.end(), [&env](const Served& s) {
    return s.route.request == env->kind;
  });
  if (it == routes_.end()) return;  // not for this node
  admit_or_shed(packet, *env, *it);
}

void ServiceNode::serve(const Packet& packet, const EnvelopeView& env, Served& served) {
  const auto outcome =
      serve_request(network_, self_, tracer_, processing_, served.route, packet, env);
  if (!outcome) {
    malformed_.in(registry_).inc();
    return;
  }
  outcome_counter(served, *outcome).inc();
}

obs::Counter& ServiceNode::outcome_counter(Served& served, std::string_view outcome) {
  for (auto& [name, counter] : served.outcomes) {
    if (name == outcome) return *counter;
  }
  obs::Counter& counter = registry_.counter(outcome_metric(served.route.request, outcome));
  served.outcomes.emplace_back(std::string(outcome), &counter);
  return counter;
}

/// Route one decoded request through the node's admission queue. Without a
/// queue the request is served at once (the legacy instantaneous model).
/// With one, the request either waits for a worker — served at service
/// start, after an observable "queue" span — or is shed with a kBusy
/// response carrying a retry-after hint. Shedding is never silent.
void ServiceNode::admit_or_shed(const Packet& packet, const EnvelopeView& env,
                                Served& served) {
  if (queue_ == nullptr) {
    serve(packet, env, served);
    return;
  }
  const util::SimTime now = network_.now();
  const ServiceQueue::Decision d =
      queue_->admit(now, processing_.*served.route.tier, sheddable_kind(env.kind));
  depth_.in(registry_).set(static_cast<std::int64_t>(queue_->depth(now)));
  if (!d.accepted) {
    served.shed.in(registry_).inc();
    busy_sent_.in(registry_).inc();
    obs::FlightRecorder::global().record("server.shed", self_,
                                         static_cast<std::uint64_t>(d.depth),
                                         std::string(to_string(env.kind)).c_str());
    if (tracer_ != nullptr) {
      const obs::SpanId parent = tracer_->bound_request(packet.from, env.request_id);
      const obs::SpanId span = tracer_->begin_span(
          "server", "shed " + std::string(to_string(env.kind)), self_, now, parent);
      tracer_->tag(span, "retry_after", std::to_string(d.retry_after));
      tracer_->tag(span, "depth", std::to_string(d.depth));
      tracer_->end_span(span, now, false);
    }
    BusyPayload busy;
    busy.retry_after = std::min(d.retry_after, BusyPayload::kMaxRetryAfter);
    busy.queue_depth = static_cast<std::uint32_t>(d.depth);
    Envelope reply;
    reply.kind = MsgKind::kBusy;
    reply.request_id = env.request_id;
    reply.payload = busy.encode();
    // Rejection is cheap (no worker consumed): the BUSY leaves immediately.
    network_.send(self_, packet.from, reply.encode());
    return;
  }
  if (d.wait <= 0) {
    serve(packet, env, served);
    return;
  }
  if (tracer_ != nullptr) {
    const obs::SpanId parent = tracer_->bound_request(packet.from, env.request_id);
    const obs::SpanId span = tracer_->begin_span("server", "queue", self_, now, parent);
    tracer_->tag(span, "depth", std::to_string(d.depth));
    tracer_->end_span(span, now + d.wait, true);
  }
  // The copy of `packet` keeps the buffer that `env` views alive.
  network_.post(self_, d.wait, [this, &served, packet, env] {
    // An instance that crashed while the request was queued loses it; the
    // client's retransmission machinery takes over.
    if (!network_.attached(self_)) return;
    serve(packet, env, served);
  });
}

PeerNode::PeerNode(std::unique_ptr<p2p::Peer> peer, Network& network,
                   ProcessingModel processing)
    : peer_(std::move(peer)),
      network_(network),
      processing_(processing),
      join_route_(route<core::JoinRequest>(
          MsgKind::kJoinRequest, MsgKind::kJoinResponse, &ProcessingModel::heavy,
          [this](const auto& req, const Packet& packet, util::SimTime now) {
            return peer_->handle_join(req, packet.from_addr, packet.from, now);
          })) {}

void PeerNode::on_packet(const Packet& packet) {
  const auto env = EnvelopeView::decode(packet.data());
  if (!env) {
    count_malformed();
    return;
  }
  on_envelope(packet, *env);
}

void PeerNode::on_envelope(const Packet& packet, const EnvelopeView& env) {
  switch (env.kind) {
    case MsgKind::kJoinRequest: {
      // The managers' serve routine, without an admission queue.
      const auto outcome =
          serve_request(network_, id(), tracer_, processing_, join_route_, packet, env);
      if (!outcome) {
        count_malformed();
      } else if (*outcome == "ok" && join_observer_) {
        join_observer_(packet.from, peer_->child_count());
      }
      return;
    }
    case MsgKind::kRenewalPresent: {
      const bool ok =
          peer_->present_renewal(packet.from, env.payload, network_.local_time(id()));
      util::WireWriter w;
      w.u8(ok ? 1 : 0);
      respond_after(network_, id(), packet.from, MsgKind::kRenewalAck,
                    env.request_id, w.take(), processing_.light);
      return;
    }
    case MsgKind::kKeyBlob: {
      std::vector<p2p::Outgoing> forwards =
          peer_->handle_key_blob(packet.from, env.payload);
      if (forwards.empty()) return;  // leaf install or duplicate epoch
      if (tracer_ != nullptr && env.request_id != 0) {
        // Parent this relay under the incoming blob's binding (the sender's
        // relay span, or the rotation root span) and bind our own epoch so
        // the outgoing hops attach here.
        const util::SimTime now = network_.local_time(id());
        const obs::SpanId parent =
            tracer_->bound_request(packet.from, env.request_id);
        const obs::SpanId relay =
            tracer_->begin_span("p2p", "relay key", id(), now, parent);
        tracer_->tag(relay, "children", std::to_string(forwards.size()));
        if (bound_epoch_ != 0) tracer_->unbind_request(id(), bound_epoch_);
        tracer_->bind_request(id(), env.request_id, relay);
        bound_epoch_ = env.request_id;
        tracer_->end_span(relay, now);
      }
      for (p2p::Outgoing& out : forwards) {
        Envelope fwd;
        fwd.kind = MsgKind::kKeyBlob;
        fwd.request_id = env.request_id;
        fwd.payload = std::move(out.payload);
        network_.send(id(), out.to, fwd.encode());
        ++keys_relayed_;
      }
      return;
    }
    case MsgKind::kContent: {
      core::ContentPacketView content;
      try {
        content = core::ContentPacketView::decode(env.payload);
      } catch (const util::WireError&) {
        count_malformed();
        return;
      }
      ++content_received_;
      if (content_sink_) content_sink_(content, peer_->decrypt(content));
      // Relay what arrived: the source's encryption travels unchanged.
      fan_out(packet.buffer, content.seq);
      return;
    }
    default:
      return;
  }
}

void PeerNode::announce_key(const core::ContentKey& key,
                            std::uint64_t request_id) {
  for (p2p::Outgoing& out : peer_->announce_key(key)) {
    Envelope env;
    env.kind = MsgKind::kKeyBlob;
    env.request_id = request_id;
    env.payload = std::move(out.payload);
    network_.send(id(), out.to, env.encode());
    ++keys_relayed_;
  }
}

void PeerNode::forward_content(const core::ContentPacket& packet) {
  // One encoding: the packet's fields are written in place as the payload.
  const BasicEnvelope<util::Nested<core::ContentPacket>> env{MsgKind::kContent, 0,
                                                             {packet}};
  fan_out(std::make_shared<const util::Bytes>(env.encode()), packet.seq);
}

void PeerNode::fan_out(const Buffer& wire, std::uint64_t seq) {
  // Sub-stream aware: each child only receives the sub-streams it asked
  // this parent for (peer-division multiplexing).
  peer_->for_each_target(seq,
                         [&](util::NodeId child) { network_.send(id(), child, wire); });
}

}  // namespace p2pdrm::net
