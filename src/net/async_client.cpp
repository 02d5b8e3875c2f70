#include "net/async_client.h"

#include <algorithm>

#include "core/client_flows.h"

namespace p2pdrm::net {

using core::DrmError;
using core::Round;
using core::is_permanent_failure;

namespace {

// Session-recovery backoff: the first retry waits kRecoveryDelay, every
// later one twice as long, capped at kMaxRecoveryDelay.
constexpr int kMaxRecoveryAttempts = 6;  // per operation; recover_session is unbounded
constexpr util::SimTime kRecoveryDelay = 1 * util::kSecond;
constexpr util::SimTime kMaxRecoveryDelay = 30 * util::kSecond;

/// nullopt when `payload` does not decode as a `Message`.
template <typename Message>
std::optional<Message> decode_as(util::BytesView payload) {
  try {
    return Message::decode(payload);
  } catch (const util::WireError&) {
    return std::nullopt;
  }
}

/// Send one request through `tx` and decode its typed response. A malformed
/// response fails `done` with kBadTicket, a refusal (`error != kOk`) with
/// the server's error, a transmission failure with the transmitter's;
/// `on_ok` sees only accepted responses.
template <typename Response>
void request(Transmitter& tx, util::NodeId to, MsgKind kind, util::Bytes payload,
             MsgKind expect, Round round, AsyncClient::Callback done,
             std::function<void(Response)> on_ok) {
  tx.send(
      to, kind, std::move(payload), expect, round,
      [done, on_ok = std::move(on_ok)](const EnvelopeView& env) {
        std::optional<Response> resp = decode_as<Response>(env.payload);
        if (!resp) {
          done(DrmError::kBadTicket);
          return;
        }
        if constexpr (requires { resp->error; }) {
          if (resp->error != DrmError::kOk) {
            done(resp->error);
            return;
          }
        }
        on_ok(std::move(*resp));
      },
      done);
}

}  // namespace

AsyncClient::AsyncClient(Config config, Network& network, crypto::SecureRandom rng)
    : config_(std::move(config)), network_(network), rng_(std::move(rng)),
      keys_(crypto::generate_rsa_keypair(rng_, config_.key_bits)),
      tx_(config_.transmit, config_.node, network_, rng_) {
  network_.attach(config_.node, config_.addr, this);
}

AsyncClient::~AsyncClient() { leave(); }

void AsyncClient::leave() {
  if (departed_) return;
  departed_ = true;
  ++renew_epoch_;  // cancel outstanding renewal timers
  auto_renew_ = false;
  starvation_recovery_ = false;
  // Drop every in-flight request, so no timer can fire a send from (or
  // re-arm for) a dead session.
  tx_.cancel();
  if (network_.attached(config_.node)) network_.detach(config_.node);
}

void AsyncClient::on_packet(const Packet& packet) {
  const auto env = EnvelopeView::decode(packet.data());
  if (!env) {
    if (tx_.registry() != nullptr) malformed_.in(*tx_.registry()).inc();
    return;
  }
  switch (env->kind) {
    // Peer-plane messages are served by the embedded overlay half.
    case MsgKind::kJoinRequest:
    case MsgKind::kRenewalPresent:
    case MsgKind::kKeyBlob:
    case MsgKind::kContent:
      if (peer_node_) peer_node_->on_envelope(packet, *env);
      return;
    default:
      tx_.on_envelope(packet.from, *env);
  }
}

void AsyncClient::forget_routes() {
  redirect_.reset();
  channels_.clear();
  partitions_.clear();
}

void AsyncClient::enable_starvation_recovery(util::SimTime gap) {
  starvation_recovery_ = true;
  starvation_gap_ = gap;
  last_content_ = network_.now();
  if (channel_ticket_) arm_starvation_watchdog();
}

void AsyncClient::arm_starvation_watchdog() {
  if (!starvation_recovery_ || departed_ || watchdog_armed_) return;
  watchdog_armed_ = true;
  tx_.schedule(starvation_gap_, [this] {
    watchdog_armed_ = false;
    if (departed_ || !starvation_recovery_) return;
    if (!channel_ticket_ || recovering_) {
      arm_starvation_watchdog();
      return;
    }
    if (network_.now() - last_content_ >= starvation_gap_) {
      // Starved: the parent is gone or the subtree died. Re-switch for a
      // fresh ticket and peer list (the paper's client does exactly this on
      // a dead parent; the Channel Manager logs it as a fresh view).
      recovering_ = true;
      ++starvation_recoveries_;
      const util::ChannelId channel = channel_ticket_->ticket.channel_id;
      switch_channel(channel, [this](DrmError) {
        recovering_ = false;
        last_content_ = network_.now();
      });
    }
    arm_starvation_watchdog();
  });
}

void AsyncClient::enable_auto_renewal(util::SimTime margin) {
  auto_renew_ = true;
  renew_margin_ = margin;
  if (channel_ticket_) schedule_auto_renewal();
}

void AsyncClient::schedule_auto_renewal() {
  if (!auto_renew_ || !channel_ticket_ || departed_) return;
  const std::uint64_t epoch = ++renew_epoch_;
  const util::SimTime due = std::max(
      channel_ticket_->ticket.expiry_time - renew_margin_, network_.now() + 1);
  tx_.schedule(due - network_.now(), [this, epoch] {
    if (departed_ || epoch != renew_epoch_ || !channel_ticket_) return;
    // Keep the User Ticket ahead of the Channel Ticket: re-login first when
    // it would expire before the renewed Channel Ticket needs it.
    const auto renew = [this](DrmError) {
      renew_channel_ticket([this](DrmError err) {
        if (err == DrmError::kOk) {
          schedule_auto_renewal();
          return;
        }
        // Renewal (and, with resilience on, the recovery behind it) failed.
        // A session recovery may still be running — the re-switch it ends
        // with re-arms this timer — but if nothing else is in flight, kick
        // off a recovery ourselves rather than silently losing the session.
        if (config_.resilience && !departed_ && !session_recovery_active_) {
          recover_session([this](DrmError err2) {
            if (err2 == DrmError::kOk) schedule_auto_renewal();
          });
        }
      });
    };
    if (user_ticket_ &&
        user_ticket_->ticket.expiry_time - network_.now() < 2 * renew_margin_) {
      login(renew);
    } else {
      renew(DrmError::kOk);
    }
  });
}

void AsyncClient::bind_observability(obs::Registry* registry,
                                     obs::Tracer* tracer,
                                     obs::SloMonitor* slo) {
  tx_.bind_observability(registry, tracer, slo);
  const bool bound = registry != nullptr;
  keys_delivered_ = bound ? &registry->counter("keys.epochs_delivered") : nullptr;
  key_margin_hist_ =
      bound ? &registry->histogram("keys.delivery_margin_us") : nullptr;
  key_staleness_gauge_ = bound ? &registry->gauge("keys.max_staleness_us") : nullptr;
}

void AsyncClient::on_key_installed(const core::ContentKey& key) {
  const util::SimTime now = network_.now();
  if (keys_delivered_ != nullptr) {
    keys_delivered_->inc();
    // Margin: how far ahead of activation the epoch landed (0 = late).
    const util::SimTime margin = key.activation - now;
    key_margin_hist_->record(margin > 0 ? margin : 0);
    if (margin < 0) key_staleness_gauge_->set_max(-margin);
  }
}

// ---------------------------------------------------------------------------
// Resilience: operation-level failover and session recovery

util::SimTime AsyncClient::recovery_backoff(int attempt) {
  double delay = static_cast<double>(kRecoveryDelay);
  for (int i = 0; i < attempt; ++i) delay *= 2.0;
  delay = std::min(delay, static_cast<double>(kMaxRecoveryDelay));
  // Equal-jitter: spread the wait over [delay/2, delay*(1 + jitter)) with
  // a single draw, so a cohort recovering from the same outage fans out
  // across half the backoff window instead of clustering near its top.
  delay = delay * 0.5 +
          delay * (0.5 + Transmitter::kJitter) * rng_.uniform_real();
  return static_cast<util::SimTime>(delay);
}

void AsyncClient::run_resilient(std::function<void(Callback)> op, int attempt,
                                Callback done) {
  auto self_op = op;  // keep a copy for the retry closure
  op([this, op = std::move(self_op), attempt, done](DrmError err) {
    if (err == DrmError::kOk || departed_ || !config_.resilience ||
        is_permanent_failure(err) || attempt + 1 >= kMaxRecoveryAttempts) {
      done(err);
      return;
    }
    // Fail over: drop the cached redirect and channel list so the next
    // attempt re-resolves the User Manager (the Redirection Manager steers
    // around dead farm instances) and refetches partition info (the CPM
    // re-points a partition at a surviving Channel Manager instance).
    ++failovers_;
    forget_routes();
    tx_.schedule(recovery_backoff(attempt), [this, op, attempt, done] {
      if (departed_) {
        done(DrmError::kNoCapacity);
        return;
      }
      run_resilient(op, attempt + 1, done);
    });
  });
}

void AsyncClient::recover_session(Callback done) {
  if (session_recovery_active_ || departed_) {
    done(DrmError::kRenewalRefused);  // a recovery loop is already running
    return;
  }
  session_recovery_active_ = true;
  recover_session_attempt(network_.now(), 0, std::move(done));
}

void AsyncClient::recover_session_attempt(util::SimTime started, int attempt,
                                          Callback done) {
  if (departed_) {
    session_recovery_active_ = false;
    done(DrmError::kNoCapacity);
    return;
  }
  // Start from scratch: fresh redirect, fresh channel list, fresh login.
  forget_routes();
  const util::ChannelId channel = current_channel_;
  do_login([this, started, attempt, channel, done](DrmError err) {
    const auto finish = [this, started, attempt, done](DrmError result) {
      if (result == DrmError::kOk) {
        session_recovery_active_ = false;
        ++rejoins_;
        rejoin_latencies_.push_back(network_.now() - started);
        done(DrmError::kOk);
      } else if (is_permanent_failure(result)) {
        session_recovery_active_ = false;
        done(result);
      } else {
        tx_.schedule(recovery_backoff(attempt), [this, started, attempt, done] {
          recover_session_attempt(started, std::min(attempt + 1, 16), done);
        });
      }
    };
    if (err != DrmError::kOk) {
      finish(err);
      return;
    }
    ++relogins_;
    if (channel == 0) {  // never watched anything: logged in again is enough
      finish(DrmError::kOk);
      return;
    }
    do_switch_channel(channel, finish);
  });
}

// ---------------------------------------------------------------------------
// Login

void AsyncClient::login(Callback done) {
  run_resilient([this](Callback cb) { do_login(std::move(cb)); }, 0,
                std::move(done));
}

void AsyncClient::switch_channel(util::ChannelId channel, Callback done) {
  run_resilient(
      [this, channel](Callback cb) {
        // After a failover the cached session may be gone; a resilient
        // client re-logs in first when the channel list (with its partition
        // info) was dropped.
        if (config_.resilience && (!user_ticket_ || channels_.empty())) {
          do_login([this, channel, cb](DrmError err) {
            if (err != DrmError::kOk) {
              cb(err);
              return;
            }
            do_switch_channel(channel, cb);
          });
          return;
        }
        do_switch_channel(channel, std::move(cb));
      },
      0, std::move(done));
}

void AsyncClient::renew_channel_ticket(Callback done) {
  do_renew_channel_ticket([this, done](DrmError err) {
    if (err == DrmError::kOk || !config_.resilience || departed_ ||
        is_permanent_failure(err)) {
      done(err);
      return;
    }
    // The renewal window closed, the manager lost our viewing-log entry in
    // a crash, or the farm is unreachable: the session is as good as lost.
    // A resilient client re-logs in and re-joins instead of clinging to the
    // expiring ticket.
    recover_session(std::move(done));
  });
}

void AsyncClient::do_login(Callback done) {
  if (redirect_) {
    start_login1(std::move(done));
    return;
  }
  services::RedirectRequest req{config_.email};
  request<services::RedirectResponse>(
      tx_, config_.redirection_node, MsgKind::kRedirectRequest, req.encode(),
      MsgKind::kRedirectResponse, Round::kLogin1, done,
      [this, done](services::RedirectResponse resp) {
        if (!resp.found) {
          done(DrmError::kUnknownUser);
          return;
        }
        redirect_ = std::move(resp);
        start_login1(done);
      });
}

void AsyncClient::start_login1(Callback done) {
  const auto um_node = network_.node_at(redirect_->user_manager.addr);
  if (!um_node) {
    // The cached redirect points at nothing — stale, or poisoned by a
    // corrupted-but-decodable RedirectResponse (wire fuzzing provokes
    // exactly this). Drop it so the next login re-resolves instead of
    // failing locally forever; run_resilient already resets it on
    // failover, this heals the plain-client path too.
    redirect_.reset();
    done(DrmError::kWrongDomain);
    return;
  }
  const core::Login1Request req{.email = config_.email,
                                .client_public_key = keys_.pub,
                                .client_version = config_.client_version};

  // A wrong-domain refusal means the redirect steered us to a User Manager
  // that does not own this account: re-resolve next login.
  const Callback refused = [this, done](DrmError err) {
    if (err == DrmError::kWrongDomain) redirect_.reset();
    done(err);
  };
  request<core::Login1Response>(
      tx_, *um_node, MsgKind::kLogin1Request, req.encode(),
      MsgKind::kLogin1Response, Round::kLogin1, refused,
      [this, done, um_node](core::Login1Response resp1) {
        const auto opened = core::open_login1_response(resp1, config_.password);
        if (!opened) {
          done(DrmError::kBadCredentials);
          return;
        }
        const core::Login2Request req2 =
            core::build_login2_request(*opened, config_.email, keys_,
                                       config_.client_version, config_.client_binary);
        request<core::Login2Response>(
            tx_, *um_node, MsgKind::kLogin2Request, req2.encode(),
            MsgKind::kLogin2Response, Round::kLogin2, done,
            [this, done](core::Login2Response resp2) { after_login2(resp2, done); });
      });
}

void AsyncClient::after_login2(const core::Login2Response& resp, Callback done) {
  if (!resp.ticket) {
    done(DrmError::kBadCredentials);
    return;
  }
  previous_user_ticket_ = std::move(user_ticket_);
  user_ticket_ = resp.ticket;

  // utime comparison against the previous ticket (§IV-B).
  std::vector<std::string> stale;
  if (previous_user_ticket_) {
    for (const core::Attribute& a : user_ticket_->ticket.attributes.items()) {
      if (a.utime == util::kNullTime) continue;
      const core::Attribute* old = previous_user_ticket_->ticket.attributes.find(a.name);
      if (old == nullptr || old->utime == util::kNullTime || a.utime > old->utime) {
        stale.push_back(a.name);
      }
    }
  }
  if (channels_.empty()) {
    maybe_fetch_channel_list({}, std::move(done));
  } else if (!stale.empty()) {
    maybe_fetch_channel_list(std::move(stale), std::move(done));
  } else {
    done(DrmError::kOk);
  }
}

void AsyncClient::maybe_fetch_channel_list(std::vector<std::string> stale,
                                           Callback done) {
  const auto cpm_node = network_.node_at(redirect_->channel_policy_manager.addr);
  if (!cpm_node) {
    done(DrmError::kOk);  // no CPM deployed: proceed without a list
    return;
  }
  const bool full = stale.empty();
  const core::ChannelListRequest req{.user_ticket = user_ticket_->encode(),
                                     .stale_attributes = std::move(stale)};

  request<core::ChannelListResponse>(
      tx_, *cpm_node, MsgKind::kChannelListRequest, req.encode(),
      MsgKind::kChannelListResponse, Round::kLogin2, done,
      [this, done, full](core::ChannelListResponse resp) {
        if (full) {
          channels_ = std::move(resp.channels);
        } else {
          for (core::ChannelRecord& fresh : resp.channels) {
            const auto cached = std::find_if(
                channels_.begin(), channels_.end(),
                [&fresh](const core::ChannelRecord& c) { return c.id == fresh.id; });
            if (cached == channels_.end()) {
              channels_.push_back(std::move(fresh));
            } else {
              *cached = std::move(fresh);
            }
          }
        }
        if (!resp.partitions.empty()) partitions_ = std::move(resp.partitions);
        done(DrmError::kOk);
      });
}

// ---------------------------------------------------------------------------
// Channel switching + join

std::vector<util::ChannelId> AsyncClient::viewable_channels() const {
  std::vector<util::ChannelId> out;
  if (!user_ticket_) return out;
  const util::SimTime now = network_.now();
  for (const core::ChannelRecord& c : channels_) {
    if (core::channel_accessible(c, user_ticket_->ticket.attributes, now)) {
      out.push_back(c.id);
    }
  }
  return out;
}

const core::PartitionInfo* AsyncClient::partition_of(util::ChannelId channel) const {
  std::uint32_t partition = 0;
  for (const core::ChannelRecord& c : channels_) {
    if (c.id == channel) {
      partition = c.partition;
      break;
    }
  }
  for (const core::PartitionInfo& p : partitions_) {
    if (p.partition == partition) return &p;
  }
  return nullptr;
}

void AsyncClient::switch_exchange(
    util::ChannelId channel, util::Bytes expiring, Callback done,
    std::function<void(core::Switch2Response)> on_ok) {
  if (!user_ticket_) {
    done(DrmError::kBadTicket);
    return;
  }
  const core::PartitionInfo* partition = partition_of(channel);
  const auto cm_node =
      partition ? network_.node_at(partition->manager_addr) : std::nullopt;
  if (!cm_node) {
    // The cached channel list cannot route this request — stale, or
    // poisoned by a corrupted-but-decodable listing response (wire fuzzing
    // provokes exactly this). Drop the cache so the next login refetches
    // instead of looping on the same bad list; the resilient recovery path
    // already clears these, this heals the plain-client path too. The
    // redirect goes with them: a poisoned CPM address silently skips the
    // list refetch.
    forget_routes();
    done(DrmError::kWrongPartition);
    return;
  }
  // A renewal presents the expiring ticket in lieu of the channel id.
  const core::Switch1Request req1{.user_ticket = user_ticket_->encode(),
                                  .channel_id = expiring.empty() ? channel : 0,
                                  .expiring_ticket = std::move(expiring)};

  request<core::Switch1Response>(
      tx_, *cm_node, MsgKind::kSwitch1Request, req1.encode(),
      MsgKind::kSwitch1Response, Round::kSwitch1, done,
      [this, done, cm_node, req1, on_ok = std::move(on_ok)](
          core::Switch1Response resp1) {
        const core::Switch2Request req2 = core::build_switch2_request(
            resp1, req1.user_ticket, req1.channel_id, req1.expiring_ticket,
            keys_.priv);
        request<core::Switch2Response>(tx_, *cm_node, MsgKind::kSwitch2Request,
                                       req2.encode(), MsgKind::kSwitch2Response,
                                       Round::kSwitch2, done, on_ok);
      });
}

void AsyncClient::do_switch_channel(util::ChannelId channel, Callback done) {
  switch_exchange(channel, {}, done, [this, channel, done](core::Switch2Response resp2) {
    if (!resp2.ticket) {
      done(DrmError::kAccessDenied);
      return;
    }
    channel_ticket_ = std::move(resp2.ticket);
    current_channel_ = channel;
    parent_.reset();

    // Fresh overlay half for the new channel; the network keeps routing our
    // node id to this AsyncClient, which delegates.
    crypto::RsaPublicKey cm_key;
    if (const core::PartitionInfo* partition = partition_of(channel)) {
      cm_key = crypto::RsaPublicKey::decode(partition->manager_public_key);
    }
    p2p::PeerConfig pc;
    pc.node = config_.node;
    pc.addr = config_.addr;
    pc.channel = channel;
    pc.capacity = config_.peer_capacity;
    pc.substreams = config_.substreams;
    peer_node_ = std::make_unique<PeerNode>(
        std::make_unique<p2p::Peer>(pc, keys_, cm_key, rng_.fork()), network_);
    if (tx_.tracer() != nullptr) peer_node_->set_tracer(tx_.tracer());
    if (tx_.registry() != nullptr) peer_node_->set_registry(tx_.registry());
    peer_node_->peer().set_install_listener(
        [this](const core::ContentKey& key) { on_key_installed(key); });
    reassembly_ = std::make_unique<p2p::SubstreamBuffer>(1024);
    router_.reset();
    peer_node_->set_content_sink([this](const core::ContentPacketView& packet,
                                        std::optional<util::Bytes> plain) {
      last_content_ = network_.now();
      if (plain) {
        ++content_decrypted_;
        content_in_order_ += reassembly_->insert(packet.seq, std::move(*plain)).size();
      } else {
        ++content_undecryptable_;
      }
    });
    auto state = std::make_shared<JoinState>();
    state->peers = std::move(resp2.peers);
    state->started = network_.now();
    if (config_.substreams == 1) {
      state->group_masks = {0xffffffff};  // one parent carries everything
    } else {
      // One join group per parent slot: group g carries the mask of
      // sub-streams g, g+k, g+2k, ... for k parent slots.
      const std::size_t slots = std::min(
          config_.substreams, std::max<std::size_t>(1, state->peers.size()));
      state->group_masks.assign(slots, 0);
      for (std::size_t s = 0; s < config_.substreams && s < 32; ++s) {
        state->group_masks[s % slots] |= 1u << s;
      }
    }
    join(std::move(state), done);
  });
}

void AsyncClient::join(std::shared_ptr<JoinState> state, Callback done) {
  if (state->group >= state->group_masks.size()) {
    if (config_.substreams > 1) {
      // All groups placed: install the router from the final assignment.
      router_ = std::make_unique<p2p::SubstreamRouter>(config_.substreams);
      for (const auto& [parent, mask] : state->assigned) {
        for (std::size_t s = 0; s < config_.substreams && s < 32; ++s) {
          if (mask & (1u << s)) router_->assign(s, parent);
        }
      }
    }
    parent_ = state->assigned.begin()->first;
    // Per-attempt JOIN rounds were already recorded by the transmitter.
    if (auto_renew_) schedule_auto_renewal();
    if (starvation_recovery_) {
      last_content_ = network_.now();
      arm_starvation_watchdog();
    }
    done(DrmError::kOk);
    return;
  }
  if (state->candidate >= state->peers.size()) {
    tx_.record(Round::kJoin, state->started, false);
    done(DrmError::kNoCapacity);
    return;
  }

  // Spread groups over distinct candidates by starting each group's scan at
  // a different offset.
  const std::size_t index =
      (state->group + state->candidate) % state->peers.size();
  const core::PeerInfo target = state->peers[index];

  // If this parent already serves another group, request the union of masks
  // (a re-join replaces the link, so the request must carry everything).
  std::uint32_t mask = state->group_masks[state->group];
  const auto prev = state->assigned.find(target.node);
  if (prev != state->assigned.end()) mask |= prev->second;

  const core::JoinRequest req =
      peer_node_->peer().make_join_request(*channel_ticket_, mask);
  tx_.send(
      target.node, MsgKind::kJoinRequest, req.encode(), MsgKind::kJoinResponse,
      Round::kJoin,
      [this, state, target, mask, done](const EnvelopeView& env) {
        const auto resp = decode_as<core::JoinResponse>(env.payload);
        if (resp && resp->error == DrmError::kOk &&
            peer_node_->peer().complete_join(target.node, *resp)) {
          state->assigned[target.node] = mask;
          ++state->group;
          state->candidate = 0;
        } else {
          ++state->candidate;
        }
        join(state, done);
      },
      [this, state, done](DrmError) {
        // A single-parent join gives up on the first timeout (the caller can
        // re-run switch_channel for a fresh peer list).
        state->candidate = config_.substreams == 1 ? state->peers.size()
                                                   : state->candidate + 1;
        join(state, done);
      });
}

void AsyncClient::do_renew_channel_ticket(Callback done) {
  if (!channel_ticket_) {
    done(DrmError::kBadTicket);
    return;
  }
  switch_exchange(
      channel_ticket_->ticket.channel_id, channel_ticket_->encode(), done,
      [this, done](core::Switch2Response resp2) {
        if (!resp2.ticket || !resp2.ticket->ticket.renewal) {
          done(DrmError::kRenewalRefused);
          return;
        }
        channel_ticket_ = std::move(resp2.ticket);
        // Present the renewal to every parent — with multi-parent delivery
        // each of them tracks our ticket expiry. The first parent's ack
        // completes the operation; the rest are best-effort.
        const std::vector<util::NodeId> parents =
            peer_node_ ? peer_node_->peer().parents() : std::vector<util::NodeId>{};
        if (parents.empty()) {
          done(DrmError::kOk);
          return;
        }
        for (std::size_t i = 1; i < parents.size(); ++i) {
          tx_.send(parents[i], MsgKind::kRenewalPresent, channel_ticket_->encode(),
                   MsgKind::kRenewalAck, Round::kSwitch2, [](const EnvelopeView&) {},
                   [](DrmError) {});
        }
        tx_.send(
            parents[0], MsgKind::kRenewalPresent, channel_ticket_->encode(),
            MsgKind::kRenewalAck, Round::kSwitch2,
            [done](const EnvelopeView&) { done(DrmError::kOk); },
            [done](DrmError) { done(DrmError::kOk); });  // best effort
      });
}

}  // namespace p2pdrm::net
