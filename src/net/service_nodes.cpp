#include "net/service_nodes.h"

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
/// [arrival, arrival + processing]. `outcome` tags the handler's verdict.
void trace_serve(obs::Tracer* tracer, Network& network, util::NodeId self,
                 const Packet& packet, const Envelope& env,
                 util::SimTime processing, std::string_view outcome) {
  if (tracer == nullptr) return;
  const util::SimTime now = network.now();
  const obs::SpanId parent = tracer->bound_request(packet.from, env.request_id);
  const obs::SpanId span =
      tracer->begin_span("server", "serve " + std::string(to_string(env.kind)),
                         self, now, parent);
  tracer->tag(span, "from", std::to_string(packet.from));
  const bool ok = outcome == "ok";
  if (!outcome.empty()) tracer->tag(span, "outcome", std::string(outcome));
  tracer->end_span(span, now + processing, ok || outcome.empty());
}

/// One packet the node could not parse. These used to vanish without a
/// trace; now every service node counts them under a cause label.
void count_malformed(obs::Registry* registry) {
  if (registry != nullptr) registry->counter("server.drops", "malformed").inc();
}

/// Fresh admissions are the sheddable tier: a shed LOGIN costs one viewer a
/// delayed start, a shed renewal/SWITCH costs an existing viewer their
/// session (§II — session continuity beats new admissions).
bool sheddable_kind(MsgKind kind) {
  return kind == MsgKind::kLogin1Request || kind == MsgKind::kLogin2Request;
}

/// Route one decoded request through the node's admission queue. Without a
/// queue this is a plain call to `serve` (the legacy instantaneous model).
/// With one, the request either waits for a worker — `serve` runs at
/// service start, after an observable "queue" span — or is shed with a
/// kBusy response carrying a retry-after hint. Shedding is never silent.
void admit_or_shed(ServiceQueue* queue, obs::Registry* registry,
                   obs::Tracer* tracer, Network& network, util::NodeId self,
                   const Packet& packet, const Envelope& env,
                   util::SimTime service, std::function<void()> serve) {
  if (queue == nullptr) {
    serve();
    return;
  }
  const util::SimTime now = network.now();
  const ServiceQueue::Decision d =
      queue->admit(now, service, sheddable_kind(env.kind));
  if (registry != nullptr) {
    registry->gauge("server.queue.depth", std::to_string(self))
        .set(static_cast<std::int64_t>(queue->depth(now)));
  }
  if (!d.accepted) {
    if (registry != nullptr) {
      registry->counter("server.shed", std::string(to_string(env.kind))).inc();
      registry->counter("server.busy_sent").inc();
    }
    obs::FlightRecorder::global().record("server.shed", self,
                                         static_cast<std::uint64_t>(d.depth),
                                         std::string(to_string(env.kind)).c_str());
    if (tracer != nullptr) {
      const obs::SpanId parent = tracer->bound_request(packet.from, env.request_id);
      const obs::SpanId span = tracer->begin_span(
          "server", "shed " + std::string(to_string(env.kind)), self, now, parent);
      tracer->tag(span, "retry_after", std::to_string(d.retry_after));
      tracer->tag(span, "depth", std::to_string(d.depth));
      tracer->end_span(span, now, false);
    }
    BusyPayload busy;
    busy.retry_after = std::min(d.retry_after, BusyPayload::kMaxRetryAfter);
    busy.queue_depth = static_cast<std::uint32_t>(d.depth);
    Envelope reply;
    reply.kind = MsgKind::kBusy;
    reply.request_id = env.request_id;
    reply.payload = busy.encode();
    // Rejection is cheap (no worker consumed): the BUSY leaves immediately.
    network.send(self, packet.from, reply.encode());
    return;
  }
  if (d.wait <= 0) {
    serve();
    return;
  }
  if (tracer != nullptr) {
    const obs::SpanId parent = tracer->bound_request(packet.from, env.request_id);
    const obs::SpanId span =
        tracer->begin_span("server", "queue", self, now, parent);
    tracer->tag(span, "depth", std::to_string(d.depth));
    tracer->end_span(span, now + d.wait, true);
  }
  network.post(self, d.wait, [&network, self, serve = std::move(serve)] {
    // An instance that crashed while the request was queued loses it; the
    // client's retransmission machinery takes over.
    if (!network.attached(self)) return;
    serve();
  });
}

}  // namespace

void ServiceNode::set_overload_policy(const OverloadPolicy& policy) {
  queue_ = policy.enabled() ? std::make_unique<ServiceQueue>(policy) : nullptr;
}

RedirectionNode::RedirectionNode(services::RedirectionManager& rm, Network& network,
                                 util::NodeId self, ProcessingModel processing)
    : ServiceNode(network, self, processing), rm_(rm) {}

void RedirectionNode::on_packet(const Packet& packet) {
  const auto env = Envelope::decode(packet.data);
  if (!env) {
    count_malformed(registry_);
    return;
  }
  if (env->kind != MsgKind::kRedirectRequest) return;
  admit_or_shed(queue_.get(), registry_, tracer_, network_, self_, packet, *env,
                processing_.light, [this, packet, env = *env] {
    try {
      const auto req = services::RedirectRequest::decode(env.payload);
      const auto resp = rm_.handle_lookup(req);
      trace_serve(tracer_, network_, self_, packet, env, processing_.light,
                  resp.found ? "ok" : "unknown-user");
      respond_after(network_, self_, packet.from, MsgKind::kRedirectResponse,
                    env.request_id, resp.encode(), processing_.light);
    } catch (const util::WireError&) {
      count_malformed(registry_);
    }
  });
}

UserManagerNode::UserManagerNode(services::UserManager& um, Network& network,
                                 util::NodeId self, ProcessingModel processing)
    : ServiceNode(network, self, processing), um_(um) {}

void UserManagerNode::on_packet(const Packet& packet) {
  const auto env = Envelope::decode(packet.data);
  if (!env) {
    count_malformed(registry_);
    return;
  }
  switch (env->kind) {
    case MsgKind::kLogin1Request:
      admit_or_shed(queue_.get(), registry_, tracer_, network_, self_, packet,
                    *env, processing_.light, [this, packet, env = *env] {
        try {
          const auto req = core::Login1Request::decode(env.payload);
          const auto resp =
              um_.handle_login1(req, packet.from_addr, network_.local_time(self_));
          trace_serve(tracer_, network_, self_, packet, env, processing_.light,
                      core::to_string(resp.error));
          respond_after(network_, self_, packet.from, MsgKind::kLogin1Response,
                        env.request_id, resp.encode(), processing_.light);
        } catch (const util::WireError&) {
          count_malformed(registry_);
        }
      });
      return;
    case MsgKind::kLogin2Request:
      admit_or_shed(queue_.get(), registry_, tracer_, network_, self_, packet,
                    *env, processing_.heavy, [this, packet, env = *env] {
        try {
          const auto req = core::Login2Request::decode(env.payload);
          const auto resp =
              um_.handle_login2(req, packet.from_addr, network_.local_time(self_));
          trace_serve(tracer_, network_, self_, packet, env, processing_.heavy,
                      core::to_string(resp.error));
          respond_after(network_, self_, packet.from, MsgKind::kLogin2Response,
                        env.request_id, resp.encode(), processing_.heavy);
        } catch (const util::WireError&) {
          count_malformed(registry_);
        }
      });
      return;
    default:
      return;  // not for this node
  }
}

ChannelPolicyNode::ChannelPolicyNode(services::ChannelPolicyManager& cpm,
                                     Network& network, util::NodeId self,
                                     ProcessingModel processing)
    : ServiceNode(network, self, processing), cpm_(cpm) {}

void ChannelPolicyNode::on_packet(const Packet& packet) {
  const auto env = Envelope::decode(packet.data);
  if (!env) {
    count_malformed(registry_);
    return;
  }
  if (env->kind != MsgKind::kChannelListRequest) return;
  admit_or_shed(queue_.get(), registry_, tracer_, network_, self_, packet, *env,
                processing_.light, [this, packet, env = *env] {
    try {
      const auto req = core::ChannelListRequest::decode(env.payload);
      const auto resp = cpm_.handle_channel_list(req, network_.local_time(self_));
      trace_serve(tracer_, network_, self_, packet, env, processing_.light,
                  core::to_string(resp.error));
      respond_after(network_, self_, packet.from, MsgKind::kChannelListResponse,
                    env.request_id, resp.encode(), processing_.light);
    } catch (const util::WireError&) {
      count_malformed(registry_);
    }
  });
}

ChannelManagerNode::ChannelManagerNode(services::ChannelManager& cm, Network& network,
                                       util::NodeId self, ProcessingModel processing)
    : ServiceNode(network, self, processing), cm_(cm) {}

void ChannelManagerNode::on_packet(const Packet& packet) {
  const auto env = Envelope::decode(packet.data);
  if (!env) {
    count_malformed(registry_);
    return;
  }
  switch (env->kind) {
    case MsgKind::kSwitch1Request:
      admit_or_shed(queue_.get(), registry_, tracer_, network_, self_, packet,
                    *env, processing_.light, [this, packet, env = *env] {
        try {
          const auto req = core::Switch1Request::decode(env.payload);
          const auto resp =
              cm_.handle_switch1(req, packet.from_addr, network_.local_time(self_));
          trace_serve(tracer_, network_, self_, packet, env, processing_.light,
                      core::to_string(resp.error));
          respond_after(network_, self_, packet.from, MsgKind::kSwitch1Response,
                        env.request_id, resp.encode(), processing_.light);
        } catch (const util::WireError&) {
          count_malformed(registry_);
        }
      });
      return;
    case MsgKind::kSwitch2Request:
      admit_or_shed(queue_.get(), registry_, tracer_, network_, self_, packet,
                    *env, processing_.heavy, [this, packet, env = *env] {
        try {
          const auto req = core::Switch2Request::decode(env.payload);
          const auto resp =
              cm_.handle_switch2(req, packet.from_addr, network_.local_time(self_));
          trace_serve(tracer_, network_, self_, packet, env, processing_.heavy,
                      core::to_string(resp.error));
          respond_after(network_, self_, packet.from, MsgKind::kSwitch2Response,
                        env.request_id, resp.encode(), processing_.heavy);
        } catch (const util::WireError&) {
          count_malformed(registry_);
        }
      });
      return;
    default:
      return;
  }
}

PeerNode::PeerNode(std::unique_ptr<p2p::Peer> peer, Network& network,
                   ProcessingModel processing)
    : peer_(std::move(peer)), network_(network), processing_(processing) {}

void PeerNode::on_packet(const Packet& packet) {
  const auto env = Envelope::decode(packet.data);
  if (!env) {
    count_malformed(registry_);
    return;
  }
  const util::SimTime now = network_.local_time(id());
  switch (env->kind) {
    case MsgKind::kJoinRequest: {
      try {
        const auto req = core::JoinRequest::decode(env->payload);
        const core::JoinResponse resp =
            peer_->handle_join(req, packet.from_addr, packet.from, now);
        trace_serve(tracer_, network_, id(), packet, *env, processing_.heavy,
                    core::to_string(resp.error));
        respond_after(network_, id(), packet.from, MsgKind::kJoinResponse,
                      env->request_id, resp.encode(), processing_.heavy);
        if (resp.error == core::DrmError::kOk && join_observer_) {
          join_observer_(packet.from, peer_->child_count());
        }
      } catch (const util::WireError&) {
        count_malformed(registry_);
      }
      return;
    }
    case MsgKind::kRenewalPresent: {
      const bool ok = peer_->present_renewal(packet.from, env->payload, now);
      util::WireWriter w;
      w.u8(ok ? 1 : 0);
      respond_after(network_, id(), packet.from, MsgKind::kRenewalAck,
                    env->request_id, w.take(), processing_.light);
      return;
    }
    case MsgKind::kKeyBlob: {
      std::vector<p2p::Outgoing> forwards =
          peer_->handle_key_blob(packet.from, env->payload);
      if (forwards.empty()) return;  // leaf install or duplicate epoch
      if (tracer_ != nullptr && env->request_id != 0) {
        // Parent this relay under the incoming blob's binding (the sender's
        // relay span, or the rotation root span) and bind our own epoch so
        // the outgoing hops attach here.
        const obs::SpanId parent =
            tracer_->bound_request(packet.from, env->request_id);
        const obs::SpanId relay =
            tracer_->begin_span("p2p", "relay key", id(), now, parent);
        tracer_->tag(relay, "children", std::to_string(forwards.size()));
        if (bound_epoch_ != 0) tracer_->unbind_request(id(), bound_epoch_);
        tracer_->bind_request(id(), env->request_id, relay);
        bound_epoch_ = env->request_id;
        tracer_->end_span(relay, now);
      }
      for (p2p::Outgoing& out : forwards) {
        Envelope fwd;
        fwd.kind = MsgKind::kKeyBlob;
        fwd.request_id = env->request_id;
        fwd.payload = std::move(out.payload);
        network_.send(id(), out.to, fwd.encode());
        ++keys_relayed_;
      }
      return;
    }
    case MsgKind::kContent: {
      core::ContentPacket content;
      try {
        content = core::ContentPacket::decode(env->payload);
      } catch (const util::WireError&) {
        count_malformed(registry_);
        return;
      }
      ++content_received_;
      if (content_sink_) content_sink_(content, peer_->decrypt(content));
      forward_content(content);
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
  Envelope env;
  env.kind = MsgKind::kContent;
  env.payload = packet.encode();
  const util::Bytes wire = env.encode();
  // Sub-stream aware: each child only receives the sub-streams it asked
  // this parent for (peer-division multiplexing).
  for (util::NodeId child : peer_->forward_targets_for(packet.seq)) {
    network_.send(id(), child, wire);
  }
}

}  // namespace p2pdrm::net
