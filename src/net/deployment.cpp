#include "net/deployment.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <utility>

#include "services/durable_ops.h"
#include "transport/sim_transport.h"
#include "transport/thread_transport.h"

namespace p2pdrm::net {

namespace {

/// Size of the reference client binary the UM attests against.
constexpr std::size_t kClientBinarySize = 16 * 1024;

}  // namespace

Deployment::Deployment(DeploymentConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.um_instances == 0) config_.um_instances = 1;
  if (config_.cm_instances == 0) config_.cm_instances = 1;

  if (config_.transport == TransportKind::kThread) {
    transport::ThreadTransport::Config tc;
    tc.loops = config_.transport_threads;
    transport_ = std::make_unique<transport::ThreadTransport>(tc);
  } else {
    transport_ = std::make_unique<transport::SimTransport>(sim_);
  }
  network_ = std::make_unique<Network>(*transport_, config_.default_link,
                                       rng_.fork(), &registry_);
  geo_ = std::make_unique<geo::SyntheticGeo>(rng_, config_.geo_plan);

  um_domain_ = std::make_shared<services::UserManagerDomain>(
      config_.um, crypto::generate_rsa_keypair(rng_, config_.key_bits),
      rng_.bytes(32));
  reference_binary_ = rng_.bytes(kClientBinarySize);
  um_domain_->reference_binaries[config_.um.minimum_client_version] = reference_binary_;

  // The User Manager farm: every instance is a stateless front to the same
  // shared domain state (§V) — that is what makes crash/restart survivable.
  farms_.reserve(1 + config_.partitions);
  Farm& um_farm = farms_.emplace_back(Farm{FarmRef::um(), {}});
  for (std::size_t i = 0; i < config_.um_instances; ++i) {
    FarmInstance inst;
    inst.um = std::make_unique<services::UserManager>(um_domain_, &geo_->db(),
                                                      rng_.fork());
    inst.id = i == 0 ? kUserManagerNode
                     : kUmInstanceBase + static_cast<util::NodeId>(i);
    inst.addr = i == 0 ? util::parse_netaddr("10.254.0.2")
                       : util::NetAddr{0x0afe0200u + static_cast<std::uint32_t>(i)};
    inst.origin = 1000 + static_cast<std::uint32_t>(i);
    inst.node = service_node(inst.id, user_manager_routes(*inst.um));
    um_farm.instances.push_back(std::move(inst));
  }
  services::UserManager* um0 = um_farm.instances[0].um.get();

  accounts_ = std::make_unique<services::AccountManager>(
      [this](const services::UserProvisioning& p) { provision_user(p); });

  cpm_ = std::make_unique<services::ChannelPolicyManager>(um_domain_->keys.pub);
  cpm_->add_attribute_list_sink(
      [um0](const core::AttributeSet& list) { um0->update_channel_attributes(list); });

  tracker_ = std::make_unique<p2p::Tracker>(rng_.fork(), &registry_);
  tracker_->set_limits(config_.tracker_limits);

  // Attach the backend to well-known addresses on the network.
  const util::NetAddr redirection_addr = util::parse_netaddr("10.254.0.1");
  const util::NetAddr cpm_addr = util::parse_netaddr("10.254.0.3");

  redirection_node_ = service_node(kRedirectionNode, redirection_routes(redirection_));
  network_->attach(kRedirectionNode, redirection_addr, redirection_node_.get());
  for (FarmInstance& inst : um_farm.instances) {
    network_->attach(inst.id, inst.addr, inst.node.get());
  }
  cpm_node_ = service_node(kChannelPolicyNode, channel_policy_routes(*cpm_));
  network_->attach(kChannelPolicyNode, cpm_addr, cpm_node_.get());

  for (std::size_t p = 0; p < config_.partitions; ++p) {
    services::ChannelManagerConfig cm_cfg = config_.cm;
    cm_cfg.partition = static_cast<std::uint32_t>(p);
    auto partition = std::make_shared<services::ChannelManagerPartition>(
        cm_cfg, crypto::generate_rsa_keypair(rng_, config_.key_bits),
        um_domain_->keys.pub, rng_.bytes(32));
    cm_partitions_.push_back(partition);

    // The Channel Manager farm for this partition. The channel list lives
    // in the shared partition state, so one sink (through instance 0, which
    // exists even when crashed — crashing only detaches the node) is enough.
    Farm& cm_farm = farms_.emplace_back(
        Farm{FarmRef::channel(static_cast<std::uint32_t>(p)), {}});
    for (std::size_t i = 0; i < config_.cm_instances; ++i) {
      FarmInstance inst;
      inst.cm = std::make_unique<services::ChannelManager>(partition, tracker_.get(),
                                                           rng_.fork());
      inst.id = i == 0 ? kChannelManagerBase + static_cast<util::NodeId>(p)
                       : kCmInstanceBase + static_cast<util::NodeId>(p * 16 + i);
      inst.addr = i == 0
          ? util::NetAddr{0x0afe0100u + static_cast<std::uint32_t>(p)}
          : util::NetAddr{0x0afe0300u + static_cast<std::uint32_t>(p * 16 + i)};
      inst.origin = 2000 + static_cast<std::uint32_t>(p * 16 + i);
      inst.node = service_node(inst.id, channel_manager_routes(*inst.cm));
      network_->attach(inst.id, inst.addr, inst.node.get());
      cm_farm.instances.push_back(std::move(inst));
    }
    services::ChannelManager* cm0 = cm_farm.instances[0].cm.get();
    cpm_->add_channel_list_sink(
        [cm0](const std::vector<core::ChannelRecord>& list) {
          cm0->update_channel_list(list);
        });

    readvertise_partition(static_cast<std::uint32_t>(p));
  }

  for (const FarmInstance& inst : farms_[0].instances) {
    redirection_.register_domain(
        config_.um.domain,
        services::ManagerCoordinates{inst.addr, um_domain_->keys.pub.encode()});
  }
  redirection_.set_channel_policy_manager(services::ManagerCoordinates{cpm_addr, {}});

  if (config_.durability.enabled) {
    init_durable_state();
    replication_interval_ = config_.durability.replication_interval;
    schedule_replication();
  }

  if (config_.tracker_stale_age > 0) schedule_stale_sweep();
  if (config_.tracing) enable_tracing();
}

Deployment::~Deployment() {
  // Stop the loops before any member is torn down: a live delivery or timer
  // must never run against a half-destroyed node or client.
  transport_->shutdown();
}

sim::Simulation& Deployment::sim() {
  if (config_.transport != TransportKind::kSim) {
    std::fprintf(stderr,
                 "Deployment::sim() called on a live transport backend; "
                 "use now()/post()/run_until instead\n");
    std::abort();
  }
  return sim_;
}

std::function<void(AsyncClient::Callback)> login_and_switch(
    AsyncClient& client, util::ChannelId channel, std::function<void()> on_joined) {
  return [&client, channel, on_joined](AsyncClient::Callback done) {
    client.login([&client, channel, on_joined, done](core::DrmError err) {
      if (err != core::DrmError::kOk) {
        done(err);
        return;
      }
      client.switch_channel(channel, [on_joined, done](core::DrmError err2) {
        if (err2 == core::DrmError::kOk && on_joined) on_joined();
        done(err2);
      });
    });
  };
}

std::optional<core::DrmError> Deployment::run_op(
    AsyncClient& client, std::function<void(AsyncClient::Callback)> op,
    util::SimTime timeout) {
  // Both branches share the result slot with the callback: one that fires
  // after the deadline must write into live memory, not a dead stack frame.
  if (config_.transport == TransportKind::kSim) {
    auto result = std::make_shared<std::optional<core::DrmError>>();
    op([result](core::DrmError err) { *result = err; });
    // Rotation timers keep the queue non-empty forever, so stepping is
    // bounded by the virtual deadline rather than by an empty queue.
    const util::SimTime deadline = sim_.now() + timeout;
    while (!*result && sim_.now() < deadline && sim_.step()) {
    }
    return *result;
  }
  auto done = std::make_shared<std::promise<core::DrmError>>();
  std::future<core::DrmError> fut = done->get_future();
  network_->post(client.config().node, 0, [op = std::move(op), done] {
    op([done](core::DrmError err) { done->set_value(err); });
  });
  if (fut.wait_for(std::chrono::microseconds(timeout)) != std::future_status::ready) {
    return std::nullopt;
  }
  return fut.get();
}

std::unique_ptr<ServiceNode> Deployment::service_node(util::NodeId id,
                                                     std::vector<Route> routes) {
  return std::make_unique<ServiceNode>(*network_, id, std::move(routes), registry_,
                                       config_.processing, config_.overload);
}

void Deployment::init_durable_state() {
  store::FarmStore::Config sc;
  sc.snapshot_every = config_.durability.snapshot_every;
  const std::size_t cap = config_.durability.viewing_audit_cap;

  for (Farm& farm : farms_) {
    for (FarmInstance& inst : farm.instances) {
      inst.st = std::make_unique<store::FarmStore>(inst.origin, sc);
      inst.st->bind_registry(&registry_);
      if (inst.um) {
        inst.dir = std::make_unique<services::UserDirectory>();
        inst.um->use_local_directory(inst.dir.get());
        services::UserManager* um = inst.um.get();
        services::UserDirectory* dir = inst.dir.get();
        inst.st->set_state_machine(
            [um](util::BytesView payload) {
              um->apply_provision(services::decode_user_record(payload));
            },
            [dir] { return services::encode_user_directory(*dir); },
            [dir](util::BytesView state) {
              *dir = state.empty() ? services::UserDirectory{}
                                   : services::decode_user_directory(state);
            });
        continue;
      }
      inst.log = std::make_unique<services::ViewingLog>();
      inst.log->set_audit_cap(cap);
      inst.cm->use_local_log(inst.log.get());
      services::ViewingLog* log = inst.log.get();
      inst.st->set_state_machine(
          [log](util::BytesView payload) {
            log->record(services::decode_viewing_entry(payload));
          },
          [log] { return log->encode(); },
          [log, cap](util::BytesView state) {
            *log = state.empty() ? services::ViewingLog()
                                 : services::ViewingLog::decode(state);
            log->set_audit_cap(cap);
          });
      // Every viewing entry this instance writes is journaled; fresh issues
      // (the single-session witness) are additionally written through
      // before the Switch2 response leaves the handler, so a crash
      // immediately after the reply cannot forget the admission.
      inst.cm->set_viewing_sink(
          [this, f = &farm, self = &inst](const services::ViewingLog::Entry& entry) {
            write_through(*f, *self, services::encode_viewing_entry(entry),
                          !entry.renewal);
          });
    }
  }
}

void Deployment::provision_user(const services::UserProvisioning& p) {
  Farm& um_farm = farms_[0];
  if (!config_.durability.enabled) {
    um_farm.instances[0].um->provision(p);
    return;
  }
  // Control-plane write lands on the first live instance and — like fresh
  // issues — is written through: provisioning loss would strand an account.
  FarmInstance* primary = &um_farm.instances[0];
  for (FarmInstance& inst : um_farm.instances) {
    if (inst.up) { primary = &inst; break; }
  }
  const services::UserRecord& rec = primary->um->provision(p);
  write_through(um_farm, *primary, services::encode_user_record(rec), true);
}

void Deployment::write_through(Farm& farm, FarmInstance& self,
                               util::BytesView payload, bool critical) {
  const store::ReplicatedOp op = self.st->submit(payload);
  if (!critical || !config_.durability.sync_fresh_issues) return;
  self.st->sync();
  self.last_sync = now();
  for (FarmInstance& other : farm.instances) {
    if (&other == &self || !other.up) continue;
    if (other.st->ingest(op) == store::FarmStore::IngestResult::kGap) {
      other.st->catch_up_from(*self.st);
    }
    other.st->sync();
    other.last_sync = now();
  }
}

std::size_t Deployment::catch_up(Farm& farm, FarmInstance& inst) {
  std::size_t pulled = 0;
  for (FarmInstance& src : farm.instances) {
    if (&src == &inst || !src.up) continue;
    pulled += inst.st->catch_up_from(*src.st);
  }
  inst.st->sync();
  inst.last_sync = now();
  return pulled;
}

void Deployment::schedule_replication() {
  if (!config_.durability.enabled || replication_interval_ <= 0) {
    replication_armed_ = false;
    return;
  }
  replication_armed_ = true;
  post(replication_interval_, [this] {
    if (replication_interval_ <= 0) {
      replication_armed_ = false;
      return;
    }
    replication_tick();
    schedule_replication();
  });
}

void Deployment::replication_tick() {
  for (Farm& farm : farms_) {
    for (FarmInstance& inst : farm.instances) {
      if (inst.up) catch_up(farm, inst);
    }
  }
  registry_.counter("store.replication.rounds").inc();
}

void Deployment::set_replication_interval(util::SimTime interval) {
  replication_interval_ = interval;
  registry_.gauge("store.replication.interval_us").set(interval);
  if (interval > 0 && !replication_armed_) schedule_replication();
}

void Deployment::replicate_now() {
  if (config_.durability.enabled) replication_tick();
}

void Deployment::enable_tracing() {
  if (tracing_) return;
  tracing_ = true;
  trace_interceptor_ = std::make_unique<TraceInterceptor>(tracer_);
  network_->add_interceptor(trace_interceptor_.get());
  redirection_node_->set_tracer(&tracer_);
  cpm_node_->set_tracer(&tracer_);
  for (Farm& farm : farms_) {
    for (FarmInstance& inst : farm.instances) inst.node->set_tracer(&tracer_);
  }
  for (auto& [id, source] : sources_) source.root->set_tracer(&tracer_);
  for (const std::unique_ptr<AsyncClient>& client : clients_) {
    client->bind_observability(&registry_, &tracer_, slo_);
  }
}

void Deployment::enable_scraping(obs::TimeSeries* timeseries, obs::SloMonitor* slo,
                                 util::SimTime interval) {
  timeseries_ = timeseries;
  slo_ = slo;
  if (interval > 0) scrape_interval_ = interval;
  for (const std::unique_ptr<AsyncClient>& client : clients_) {
    client->bind_observability(&registry_, tracing_ ? &tracer_ : nullptr, slo_);
  }
  if (!scraping_) {
    scraping_ = true;
    schedule_scrape();
  }
}

void Deployment::schedule_scrape() {
  post(scrape_interval_, [this] {
    std::size_t live = 0;
    for (const std::unique_ptr<AsyncClient>& client : clients_) {
      if (!client->departed()) ++live;
    }
    const util::SimTime t = now();
    if (slo_ != nullptr) slo_->tick(t, static_cast<double>(live));
    if (timeseries_ != nullptr) {
      // On the live backend, fold the event-loop telemetry into the same
      // registry the scrape reads — loop utilization and scheduling
      // latency land in the time series next to the protocol metrics.
      // (export_into is idempotent, and the loop locks it takes are free
      // here: this task runs with its own loop's lock released.)
      if (auto* threaded =
              dynamic_cast<transport::ThreadTransport*>(transport_.get())) {
        threaded->export_into(registry_);
      }
      timeseries_->record("load.clients", t, static_cast<double>(live));
      timeseries_->scrape(registry_, t);
    }
    schedule_scrape();
  });
}

void Deployment::readvertise_partition(std::uint32_t partition) {
  const FarmInstance* live = nullptr;
  for (const FarmInstance& inst : farm(FarmRef::channel(partition)).instances) {
    if (inst.up) { live = &inst; break; }
  }
  // Whole farm down: keep the stale advertisement; clients time out and
  // their failover loop refetches once an instance comes back.
  if (live == nullptr) return;
  core::PartitionInfo info;
  info.partition = partition;
  info.manager_addr = live->addr;
  info.manager_public_key = cm_partitions_[partition]->keys.pub.encode();
  cpm_->set_partition_info(info);
}

services::UserManager& Deployment::user_manager(std::size_t instance) {
  return *farm(FarmRef::um()).instances.at(instance).um;
}

services::ChannelManager& Deployment::channel_manager(std::uint32_t partition) {
  return *farm(FarmRef::channel(partition)).instances[0].cm;
}

bool Deployment::add_user(const std::string& email, const std::string& password) {
  if (!accounts_->create_account(email, password, now())) return false;
  redirection_.assign_user(email, config_.um.domain);
  return true;
}

void Deployment::add_regional_channel(util::ChannelId id, const std::string& name,
                                      geo::RegionId region, std::uint32_t partition) {
  cpm_->add_channel(services::make_regional_channel(id, name, region, partition),
                    now());
}

void Deployment::add_subscription_channel(util::ChannelId id, const std::string& name,
                                          geo::RegionId region,
                                          const std::string& package,
                                          std::uint32_t partition) {
  cpm_->add_channel(
      services::make_subscription_channel(id, name, region, package, partition),
      now());
}

std::string Deployment::load_catalog(std::string_view text) {
  services::CatalogParseResult parsed = services::parse_catalog(text);
  if (!parsed.ok()) return parsed.error;
  for (core::ChannelRecord& channel : parsed.channels) {
    cpm_->add_channel(std::move(channel), now());
  }
  return {};
}

void Deployment::start_channel_server(util::ChannelId id,
                                      services::ChannelServerConfig cfg) {
  cfg.channel = id;
  const core::ChannelRecord* record = cpm_->find_channel(id);
  if (record == nullptr) throw std::invalid_argument("Deployment: unknown channel");

  ChannelSource source;
  source.server = std::make_unique<services::ChannelServer>(cfg, rng_.fork(), now());
  source.partition = record->partition;

  p2p::PeerConfig pc;
  pc.node = kChannelRootBase + id;
  pc.addr = util::NetAddr{0x0ac00000u + id};
  pc.channel = id;
  pc.capacity = config_.root_peer_capacity;
  pc.substreams = config_.substreams;
  source.root = std::make_unique<PeerNode>(
      std::make_unique<p2p::Peer>(
          pc, crypto::generate_rsa_keypair(rng_, config_.key_bits),
          cm_partitions_[record->partition]->keys.pub, rng_.fork()),
      *network_, config_.processing);
  source.root->peer().install_key(source.server->latest_key());
  source.root->set_join_observer(
      [this, id, node = pc.node](util::NodeId, std::size_t children) {
        tracker_->update_load(id, node, children, now());
      });
  if (tracing_) source.root->set_tracer(&tracer_);
  source.root->set_registry(&registry_);
  network_->attach(pc.node, pc.addr, source.root.get());
  tracker_->register_peer(id, core::PeerInfo{pc.node, pc.addr}, pc.capacity,
                          now());

  sources_.insert_or_assign(id, std::move(source));
  schedule_rotation(id);
  schedule_eviction(id);
}

void Deployment::schedule_eviction(util::ChannelId id) {
  // Peers sever children whose Channel Tickets lapsed unrenewed (§IV-D);
  // the root sweeps once a minute, on the root's own loop.
  network_->post(kChannelRootBase + id, util::kMinute, [this, id] {
    const auto source = sources_.find(id);
    if (source == sources_.end()) return;
    if (!source->second.root->peer().evict_expired(now()).empty()) {
      tracker_->update_load(id, source->second.root->id(),
                            source->second.root->peer().child_count(), now());
    }
    schedule_eviction(id);
  });
}

void Deployment::schedule_stale_sweep() {
  // The keep-alive half of ungraceful-churn defense: once a minute, every
  // peer still on the network refreshes its tracker entry, then everything
  // not heard from within the stale age is evicted. A crashed client never
  // refreshes, so the tracker stops advertising it within one age window.
  post(util::kMinute, [this] {
    for (const auto& [id, source] : sources_) {
      tracker_->update_load(id, source.root->id(),
                            source.root->peer().child_count(), now());
    }
    for (const std::unique_ptr<AsyncClient>& client : clients_) {
      if (client->departed() || !client->channel_ticket()) continue;
      if (client->peer_node() == nullptr) continue;
      tracker_->update_load(client->channel_ticket()->ticket.channel_id,
                            client->config().node,
                            client->peer_node()->peer().child_count(), now());
    }
    if (now() > config_.tracker_stale_age) {
      tracker_->evict_stale(now() - config_.tracker_stale_age);
    }
    schedule_stale_sweep();
  });
}

void Deployment::schedule_rotation(util::ChannelId id) {
  const auto it = sources_.find(id);
  if (it == sources_.end()) return;
  const util::SimTime interval = it->second.server->config().rekey_interval;
  // Rotation advances the channel server and fans keys out through the
  // root: it runs on the root's loop, like every other touch of that peer.
  network_->post(kChannelRootBase + id, interval, [this, id] {
    const auto it2 = sources_.find(id);
    if (it2 == sources_.end()) return;
    ChannelSource& source = it2->second;
    for (const core::ContentKey& key : source.server->advance(now())) {
      registry_.counter("keys.rotations_issued").inc();
      if (!tracing_) {
        source.root->announce_key(key);
        continue;
      }
      // One root span per rotation; the epoch id stamps every blob of the
      // fan-out so relay spans and key-blob hops hang under it.
      const std::uint64_t epoch_id = (1ull << 48) + ++next_epoch_;
      const obs::SpanId span = tracer_.begin_span("server", "KEY_ROTATION",
                                                  source.root->id(), now());
      tracer_.tag(span, "channel", std::to_string(id));
      tracer_.tag(span, "serial", std::to_string(key.serial));
      tracer_.tag(span, "activation", std::to_string(key.activation));
      if (source.bound_epoch != 0) {
        tracer_.unbind_request(source.root->id(), source.bound_epoch);
      }
      tracer_.bind_request(source.root->id(), epoch_id, span);
      source.bound_epoch = epoch_id;
      source.root->announce_key(key, epoch_id);
      tracer_.end_span(span, now());
    }
    schedule_rotation(id);
  });
}

const Deployment::Farm& Deployment::farm(FarmRef ref) const {
  const std::size_t index = ref.cm ? 1 + std::size_t{ref.partition} : 0;
  if (index >= farms_.size()) throw std::out_of_range("Deployment: no such farm");
  return farms_[index];
}

Deployment::Farm& Deployment::farm(FarmRef ref) {
  return const_cast<Farm&>(std::as_const(*this).farm(ref));
}

std::size_t Deployment::farm_size(FarmRef ref) const {
  if (ref.cm && ref.partition >= cm_partitions_.size()) return 0;
  return farm(ref).instances.size();
}

void Deployment::farm_fault(FarmRef ref, std::size_t instance, FarmFault fault) {
  Farm& f = farm(ref);
  FarmInstance& inst = f.instances.at(instance);
  if (fault == FarmFault::kRestart) {
    restart(f, inst);
  } else {
    crash(f, inst, fault);
  }
}

void Deployment::announce_health(const Farm& farm, const FarmInstance& inst) {
  if (farm.ref.cm) {
    readvertise_partition(farm.ref.partition);
  } else {
    redirection_.set_instance_health(config_.um.domain, inst.addr, inst.up);
  }
}

void Deployment::crash(Farm& farm, FarmInstance& inst, FarmFault fault) {
  const bool durable = config_.durability.enabled;
  if (inst.up) {
    if (network_->attached(inst.id)) network_->detach(inst.id);
    inst.up = false;
    announce_health(farm, inst);
    if (durable) {
      const std::uint64_t lost = inst.st->unsynced_ops();
      if (lost > 0) {
        registry_.counter("store.lost_records").inc(lost);
        registry_.gauge("store.audit.max_loss_window_us")
            .set_max(now() - inst.last_sync);
      }
      // A torn crash lands half the staged tail on the media as a partial
      // record; replay must stop at the last whole one. The store clears
      // the in-memory replica either way: RAM is gone.
      inst.st->crash(fault == FarmFault::kCrashUnsynced
                         ? inst.st->journal().staged_bytes() / 2
                         : 0);
    }
  }
  if (fault == FarmFault::kWipe && durable) inst.st->wipe();
}

void Deployment::restart(Farm& farm, FarmInstance& inst) {
  if (inst.up) return;
  inst.up = true;
  const std::uint64_t generation = ++inst.generation;

  util::SimTime cost = 0;
  if (config_.durability.enabled) {
    // Local recovery: snapshot restore + journal replay, then anti-entropy
    // from live siblings (also pulls our own unsynced-but-shipped ops home,
    // which keeps the local sequence counter from reusing numbers).
    const std::size_t replayed = inst.st->recover();
    const std::size_t pulled = catch_up(farm, inst);
    cost = config_.durability.replay_cost_per_record *
           static_cast<util::SimTime>(replayed + pulled);
    registry_.counter("store.recovery.count").inc();
    registry_.histogram("store.recovery.time_us").record(cost);
  }
  // Back on the network once the replay window closes — unless the
  // instance crashed inside it, or a later restart opened a new window.
  const auto finish = [this, &farm, &inst, generation] {
    if (!inst.up || inst.generation != generation) return;
    if (!network_->attached(inst.id)) network_->attach(inst.id, inst.addr, inst.node.get());
    announce_health(farm, inst);
  };
  if (cost > 0) {
    post(cost, finish);
  } else {
    finish();
  }
}

void Deployment::crash_client(AsyncClient& client) {
  // Deliberately no tracker unregistration: an ungraceful death looks like
  // silence, and only the stale sweep (or failed joins) reveals it.
  client.leave();
}

AsyncClient::Config Deployment::make_client_config(const std::string& email,
                                                   const std::string& password,
                                                   geo::RegionId region) {
  AsyncClient::Config cc;
  cc.email = email;
  cc.password = password;
  cc.client_version = config_.um.minimum_client_version;
  cc.client_binary = reference_binary_;
  cc.addr = geo_->sample_address(rng_, region);
  cc.node = next_client_node_++;
  cc.key_bits = config_.key_bits;
  cc.substreams = config_.substreams;
  cc.transmit.request_timeout = config_.request_timeout;
  cc.transmit.max_retries = config_.max_retries;
  cc.transmit.retry_budget = config_.client_retry_budget;
  cc.transmit.retry_budget_refill_per_second = config_.client_retry_budget_refill;
  cc.transmit.breaker_failure_threshold = config_.client_breaker_threshold;
  cc.transmit.breaker_cooldown = config_.client_breaker_cooldown;
  cc.resilience = config_.client_resilience;
  cc.redirection_node = kRedirectionNode;
  return cc;
}

AsyncClient& Deployment::add_client(const std::string& email,
                                    const std::string& password,
                                    geo::RegionId region) {
  clients_.push_back(std::make_unique<AsyncClient>(
      make_client_config(email, password, region), *network_, rng_.fork()));
  AsyncClient* client = clients_.back().get();
  client->bind_observability(&registry_, tracing_ ? &tracer_ : nullptr, slo_);
  return *client;
}

void Deployment::announce(AsyncClient& client) {
  if (client.peer_node() == nullptr || !client.channel_ticket()) return;
  const util::ChannelId channel = client.channel_ticket()->ticket.channel_id;
  const util::NodeId node = client.config().node;
  tracker_->register_peer(channel, core::PeerInfo{node, client.config().addr},
                          client.config().peer_capacity, now());
  client.peer_node()->set_join_observer(
      [this, channel, node](util::NodeId, std::size_t children) {
        tracker_->update_load(channel, node, children, now());
      });
}

void Deployment::remove_client(AsyncClient& client) {
  if (client.channel_ticket()) {
    tracker_->unregister_peer(client.channel_ticket()->ticket.channel_id,
                              client.config().node);
  }
  client.leave();
  std::erase_if(clients_, [&](const std::unique_ptr<AsyncClient>& c) {
    return c.get() == &client;
  });
}

void Deployment::broadcast(util::ChannelId channel, util::BytesView payload) {
  const auto it = sources_.find(channel);
  if (it == sources_.end()) throw std::invalid_argument("Deployment: no channel server");
  const core::ContentPacket packet = it->second.server->produce(payload, now());
  it->second.root->forward_content(packet);
}

PeerNode* Deployment::root_node(util::ChannelId channel) {
  const auto it = sources_.find(channel);
  return it == sources_.end() ? nullptr : it->second.root.get();
}

const services::UserDirectory* Deployment::um_directory(std::size_t instance) const {
  return farm(FarmRef::um()).instances.at(instance).dir.get();
}

const services::ViewingLog* Deployment::cm_viewing_log(std::uint32_t partition,
                                                       std::size_t instance) const {
  return farm(FarmRef::channel(partition)).instances.at(instance).log.get();
}

store::FarmStore* Deployment::um_store(std::size_t instance) {
  return farm(FarmRef::um()).instances.at(instance).st.get();
}

store::FarmStore* Deployment::cm_store(std::uint32_t partition,
                                       std::size_t instance) {
  return farm(FarmRef::channel(partition)).instances.at(instance).st.get();
}

}  // namespace p2pdrm::net
