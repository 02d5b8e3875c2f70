#include "adversary/attack_actors.h"

#include "core/messages.h"

namespace p2pdrm::adversary {

// --- AttackClient ---

AttackClient::AttackClient(net::Network& network, util::NodeId node,
                           util::NetAddr addr)
    : network_(network), node_(node), addr_(addr) {
  network_.attach(node_, addr_, this);
}

AttackClient::~AttackClient() {
  if (network_.attached(node_)) network_.detach(node_);
}

void AttackClient::expect(std::uint64_t request_id, util::SimTime timeout,
                          Handler on_reply) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    pending_[request_id] = std::move(on_reply);
  }
  // The timeout races the response on this node's own loop; whichever
  // erases the pending entry first owns the single handler invocation.
  network_.post(node_, timeout, [this, request_id] {
    Handler handler;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = pending_.find(request_id);
      if (it == pending_.end()) return;  // response won the race
      handler = std::move(it->second);
      pending_.erase(it);
    }
    handler(nullptr);
  });
}

void AttackClient::send(util::NodeId to, net::MsgKind kind, util::Bytes payload,
                        util::SimTime timeout, Handler on_reply) {
  net::Envelope env;
  env.kind = kind;
  {
    std::lock_guard<std::mutex> lk(mu_);
    env.request_id = next_id_++;
  }
  env.payload = std::move(payload);
  expect(env.request_id, timeout, std::move(on_reply));
  network_.send(node_, to, env.encode());
}

void AttackClient::replay(util::NodeId to, const util::Bytes& wire,
                          util::SimTime timeout, Handler on_reply) {
  const auto env = net::Envelope::decode(wire);
  if (!env) {
    on_reply(nullptr);
    return;
  }
  expect(env->request_id, timeout, std::move(on_reply));
  network_.send(node_, to, wire);
}

void AttackClient::on_packet(const net::Packet& packet) {
  const auto env = net::Envelope::decode(packet.data());
  if (!env) return;  // the fuzzer can chew our own responses; shrug
  Handler handler;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = pending_.find(env->request_id);
    if (it == pending_.end()) return;  // stale or unsolicited
    handler = std::move(it->second);
    pending_.erase(it);
  }
  handler(&*env);
}

// --- RoguePeer ---

RoguePeer::RoguePeer(net::Network& network, util::NodeId node, util::NetAddr addr,
                     bool withhold_keys, crypto::SecureRandom rng)
    : network_(network), node_(node), addr_(addr), withhold_keys_(withhold_keys),
      rng_(std::move(rng)) {
  network_.attach(node_, addr_, this);
}

RoguePeer::~RoguePeer() {
  if (network_.attached(node_)) network_.detach(node_);
}

void RoguePeer::on_packet(const net::Packet& packet) {
  const auto env = net::Envelope::decode(packet.data());
  if (!env) return;
  switch (env->kind) {
    case net::MsgKind::kJoinRequest: {
      // Grant every join without even reading the ticket — a rogue parent
      // wants children. The "session key" is noise the child's private key
      // will never unwrap, so complete_join fails and the honest client
      // walks on to the next candidate: that walk is the collateral this
      // attack charges.
      joins_captured_.fetch_add(1, std::memory_order_relaxed);
      core::JoinResponse resp;
      resp.error = core::DrmError::kOk;
      {
        std::lock_guard<std::mutex> lk(mu_);
        resp.encrypted_session_key = rng_.bytes(64);
        resp.encrypted_content_key = rng_.bytes(48);
      }
      net::Envelope reply;
      reply.kind = net::MsgKind::kJoinResponse;
      reply.request_id = env->request_id;
      reply.payload = resp.encode();
      network_.send(node_, packet.from, reply.encode());
      return;
    }
    case net::MsgKind::kKeyBlob:
      // Pollution by omission: rotated keys stop here instead of reaching
      // any child (withhold mode) — or are simply irrelevant because no
      // child ever completed a join (garbage mode).
      if (withhold_keys_) keys_withheld_.fetch_add(1, std::memory_order_relaxed);
      return;
    default:
      return;  // content and everything else: silently absorbed
  }
}

}  // namespace p2pdrm::adversary
