// Full networked deployment over a swappable transport: every manager is a
// network node, every client is an AsyncClient, all protocol bytes cross
// the lossy wire with latency. This is the one harness behind the tests,
// examples and benches: run_op() turns any client operation into a blocking
// call on either backend.
//
// The default backend is the discrete-event simulator (deterministic,
// virtual time). With DeploymentConfig::transport = TransportKind::kThread
// the same deployment runs on real event-loop threads and monotonic-clock
// timers; protocol code is identical, but control-plane calls (add_user,
// add_client, crash/restart, enable_*) must then come from one thread —
// they are the operator's console, not the data plane.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/async_client.h"
#include "net/service_nodes.h"
#include "net/trace_interceptor.h"
#include "obs/timeseries.h"
#include "p2p/tracker.h"
#include "services/account_manager.h"
#include "services/catalog.h"
#include "services/redirection_manager.h"
#include "store/farm_store.h"
#include "transport/transport.h"

namespace p2pdrm::net {

/// Which Transport backend a Deployment schedules on.
enum class TransportKind {
  kSim,     // discrete-event simulation: virtual time, byte-identical runs
  kThread,  // real threads: one event loop per node group, wall-clock time
};

/// Durable farm state (src/store). When enabled, every UM/CM farm instance
/// owns its *own* replica of the mutable domain state (user directory,
/// viewing log) backed by a journaled store, instead of the shared
/// in-memory object: crashes lose the unsynced journal tail, restarts
/// recover via snapshot + replay + anti-entropy from surviving siblings.
struct DurabilityConfig {
  bool enabled = false;
  /// Gossip cadence: live instances fsync and pairwise catch up this often.
  /// Bounds permanent audit loss (async ops staged longer than this never
  /// exist). 0 disables the ticker (tests drive replication by hand).
  util::SimTime replication_interval = 500 * util::kMillisecond;
  /// Write critical ops through before the response leaves the handler:
  /// fresh-issue viewing entries (the single-session witness) and user
  /// provisions are fsynced and eagerly shipped to live siblings, so a
  /// crash immediately after the reply can never dual-admit. Renewal /
  /// audit-only entries stay asynchronous (loss ≤ replication_interval).
  bool sync_fresh_issues = true;
  /// Journal ops between automatic snapshots (store compaction).
  std::uint64_t snapshot_every = 256;
  /// ViewingLog in-memory audit cap (0 = unbounded); evicted entries fold
  /// into exact per-channel aggregates.
  std::size_t viewing_audit_cap = 0;
  /// Simulated recovery cost: restart stays off the network for this long
  /// per replayed/pulled record (models replay I/O). 0 = instant.
  util::SimTime replay_cost_per_record = 0;
};

struct DeploymentConfig {
  std::uint64_t seed = 1;
  std::size_t key_bits = 512;
  std::size_t partitions = 1;
  geo::SyntheticGeoPlan geo_plan;
  services::UserManagerConfig um;
  services::ChannelManagerConfig cm;
  /// Sub-streams per channel (peer-division multiplexing). Clients with
  /// substreams > 1 stripe their subscription across multiple parents.
  std::size_t substreams = 1;
  LinkConfig default_link;      // applied to every node unless overridden
  ProcessingModel processing;   // server-side handling delay
  /// Client retransmission policy.
  util::SimTime request_timeout = 3 * util::kSecond;
  int max_retries = 4;
  /// Farm sizes: instances per User Manager domain / per Channel Manager
  /// partition. All instances of a farm share the logical manager's state
  /// (§V); individual instances can be crashed and restarted.
  std::size_t um_instances = 1;
  std::size_t cm_instances = 1;
  /// When > 0, a minute-by-minute sweep evicts tracker entries not heard
  /// from in this long (defense against ungraceful peer churn).
  util::SimTime tracker_stale_age = 0;
  /// Tracker admission limits (per-channel cap + per-source registration
  /// rate). Zero values keep the historical unbounded behaviour; abuse
  /// scenarios set these so Sybil floods degrade gracefully.
  p2p::Tracker::Limits tracker_limits;
  /// Forwarded to every client config: operation-level failover and
  /// automatic re-login/re-join (see AsyncClient::Config::resilience).
  bool client_resilience = false;
  /// Server-side overload protection for every service node (redirection,
  /// UM farm, CPM, CM farms): bounded worker queue + admission control.
  /// Disabled by default (workers == 0 keeps the instantaneous model).
  OverloadPolicy overload;
  /// Forwarded to every client config: per-round retry budgets and the
  /// per-destination circuit breaker (0 values = disabled, the default).
  double client_retry_budget = 0;
  double client_retry_budget_refill = 0.5;
  int client_breaker_threshold = 0;
  util::SimTime client_breaker_cooldown = 10 * util::kSecond;
  /// Capture protocol-round spans from construction on (equivalent to
  /// calling enable_tracing() immediately). Metrics are always on.
  bool tracing = false;
  /// Per-instance durable state + farm replication (off = the legacy
  /// shared-state model where crashes lose nothing).
  DurabilityConfig durability;
  /// Transport backend. kSim (default) reproduces the historical engine
  /// byte-for-byte; kThread runs the same deployment on transport_threads
  /// real event loops (see DESIGN.md §10 for what stays deterministic).
  TransportKind transport = TransportKind::kSim;
  std::size_t transport_threads = 4;
  /// Fan-out capacity of each channel's root peer. The historical hardcoded
  /// value was 64; live benches that admit hundreds of sessions into one
  /// channel raise it so JOINs don't exhaust the root.
  std::size_t root_peer_capacity = 64;
};

/// Names one manager farm (§V): the User Manager farm, or the Channel
/// Manager farm of one partition.
struct FarmRef {
  bool cm = false;
  std::uint32_t partition = 0;  // CM farms only

  static FarmRef um() { return {}; }
  static FarmRef channel(std::uint32_t partition) { return {true, partition}; }
};

/// What the chaos plane can do to one farm instance.
enum class FarmFault : std::uint8_t {
  kCrash,          // off the network; durable mode loses the unsynced tail
  kCrashUnsynced,  // ... and half the staged tail lands as a torn write
  kWipe,           // crash (if up) and destroy the journal + snapshot media
  kRestart,        // recover, then re-attach after the replay window
};

/// The viewer's start-up sequence as one op for Deployment::run_op: log in,
/// then switch to `channel`. `on_joined`, when set, runs on the client's own
/// loop right after a successful switch and before the op completes (e.g.
/// to announce the new peer, which touches loop-confined client state).
std::function<void(AsyncClient::Callback)> login_and_switch(
    AsyncClient& client, util::ChannelId channel, std::function<void()> on_joined = {});

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config = {});
  /// Shuts the transport down first (live loops stop delivering before any
  /// node or client is destroyed), then tears members down as usual.
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // --- provisioning (instant; control plane is out of band) ---

  bool add_user(const std::string& email, const std::string& password);
  void add_regional_channel(util::ChannelId id, const std::string& name,
                            geo::RegionId region, std::uint32_t partition = 0);
  void add_subscription_channel(util::ChannelId id, const std::string& name,
                                geo::RegionId region, const std::string& package,
                                std::uint32_t partition = 0);

  /// Deploy a whole lineup from catalog-config text (services::parse_catalog
  /// format). Returns the parse error, empty on success.
  std::string load_catalog(std::string_view text);

  /// Start the channel's ingest: a ChannelServer plus a root PeerNode on
  /// the network. Key rotations self-schedule in the simulation and push
  /// wrapped keys down the (networked) tree.
  void start_channel_server(util::ChannelId id, services::ChannelServerConfig cfg = {});

  /// Create a client located in `region`; it attaches itself to the network.
  AsyncClient& add_client(const std::string& email, const std::string& password,
                          geo::RegionId region);

  /// Client configuration for callers that manage AsyncClient lifetimes
  /// themselves (churn experiments create and destroy clients constantly).
  AsyncClient::Config make_client_config(const std::string& email,
                                         const std::string& password,
                                         geo::RegionId region);

  /// Make a client's overlay peer discoverable as a parent candidate (and
  /// keep its load fresh in the tracker as children join it).
  void announce(AsyncClient& client);

  /// Session over: detach the client and retire it from the tracker.
  void remove_client(AsyncClient& client);

  /// Produce one content packet at the channel server and push it into the
  /// tree (delivery happens as simulation events).
  void broadcast(util::ChannelId channel, util::BytesView payload);

  // --- fault operations (the chaos plane; used by fault::FaultEngine) ---
  //
  // UM and CM farms are one kind of thing: interchangeable instances, each
  // of which can crash and restart. A crash detaches the instance (losing
  // in-flight work) and announces it unhealthy: the Redirection Manager
  // steers new logins around a UM instance, and the CPM's partition info is
  // re-pointed at a surviving CM instance (clients discover it on their
  // next channel-list fetch). A restart re-attaches it and announces it
  // healthy again. Instance 0 is the one created with the well-known ids.

  /// Instances in `farm`; 0 when the farm does not exist.
  std::size_t farm_size(FarmRef farm) const;
  /// Inject `fault` into one instance. Throws std::out_of_range for an
  /// instance that does not exist. Without durability.enabled the
  /// durable-state variants (unsynced, wipe) are plain crashes.
  void farm_fault(FarmRef farm, std::size_t instance, FarmFault fault);

  void crash_um_instance(std::size_t instance) {
    farm_fault(FarmRef::um(), instance, FarmFault::kCrash);
  }
  void restart_um_instance(std::size_t instance) {
    farm_fault(FarmRef::um(), instance, FarmFault::kRestart);
  }
  void crash_cm_instance(std::uint32_t partition, std::size_t instance) {
    farm_fault(FarmRef::channel(partition), instance, FarmFault::kCrash);
  }
  void restart_cm_instance(std::uint32_t partition, std::size_t instance) {
    farm_fault(FarmRef::channel(partition), instance, FarmFault::kRestart);
  }
  std::size_t cm_instance_count(std::uint32_t partition) const {
    return farm_size(FarmRef::channel(partition));
  }

  /// Ungraceful client departure: off the network immediately, nothing
  /// unregistered from the tracker (what a crash or power loss looks like
  /// from the outside — the stale-peer sweep eventually cleans up).
  void crash_client(AsyncClient& client);

  // --- durable-state chaos plane (no-ops unless durability.enabled) ---

  /// Crash leaving a torn partial write of the unsynced journal tail on the
  /// media — the worst-moment variant; replay must reject the torn record.
  void crash_um_unsynced(std::size_t instance) {
    farm_fault(FarmRef::um(), instance, FarmFault::kCrashUnsynced);
  }
  void crash_cm_unsynced(std::uint32_t partition, std::size_t instance) {
    farm_fault(FarmRef::channel(partition), instance, FarmFault::kCrashUnsynced);
  }
  /// Change the farm gossip cadence at runtime (0 stops the ticker).
  void set_replication_interval(util::SimTime interval);
  /// Force one replication round immediately (tests and fault verbs).
  void replicate_now();

  bool durable() const { return config_.durability.enabled; }
  const services::UserDirectory* um_directory(std::size_t instance) const;
  const services::ViewingLog* cm_viewing_log(std::uint32_t partition,
                                             std::size_t instance) const;
  store::FarmStore* um_store(std::size_t instance);
  store::FarmStore* cm_store(std::uint32_t partition, std::size_t instance);

  // --- time & scheduling control ---

  /// The simulation under a sim-backed deployment. Aborts on the thread
  /// backend — callers that can run on either must use now()/post()/
  /// run_until instead.
  sim::Simulation& sim();
  util::SimTime now() const { return transport_->now(); }
  /// True on the real-threaded backend (timing is wall-clock, not virtual).
  bool live() const { return transport_->live(); }
  transport::Transport& transport() { return *transport_; }
  /// Run `fn` on the control group's loop (group 0) after `delay` — the
  /// scheduling primitive for deployment-level chaos/ops tasks that works
  /// on both backends.
  void post(util::SimTime delay, transport::Task fn) {
    transport_->post(0, delay, std::move(fn));
  }
  Network& network() { return *network_; }

  // --- observability ---

  /// Always-on metrics: the network, tracker, and every client feed this.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  /// Span log (empty until enable_tracing).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Start capturing spans: installs the trace interceptor on the network
  /// and hands the tracer to every node and client, current and future.
  /// Idempotent.
  void enable_tracing();
  /// Periodic observability sweep on the simulation clock: every `interval`
  /// the SLO monitor ticks (closing a load/latency correlation bucket with
  /// the live-client count as the load signal) and the time-series engine
  /// scrapes the registry. Also feeds every client's successful rounds into
  /// `slo`, current and future. Either pointer may be null; both must
  /// outlive the deployment. Idempotent (later calls swap the sinks).
  void enable_scraping(obs::TimeSeries* timeseries, obs::SloMonitor* slo,
                       util::SimTime interval = 10 * util::kSecond);
  /// Advance to transport time t: drains events up to t on the sim backend,
  /// sleeps until the monotonic clock passes t on the thread backend.
  void run_until(util::SimTime t) { transport_->run_until(t); }
  void run_for(util::SimTime dt) { transport_->run_until(now() + dt); }
  /// Run one client operation to completion and return its result; nullopt
  /// when the callback did not fire within `timeout`. On kSim `op` runs
  /// inline and the simulation steps until the callback fires or the
  /// virtual deadline passes (other events keep running meanwhile). On
  /// kThread `op` is posted onto the client's own loop and the caller —
  /// never that loop itself — waits up to `timeout` of wall-clock time.
  std::optional<core::DrmError> run_op(AsyncClient& client,
                                       std::function<void(AsyncClient::Callback)> op,
                                       util::SimTime timeout);

  // --- component access ---

  services::AccountManager& accounts() { return *accounts_; }
  services::ChannelPolicyManager& policy_manager() { return *cpm_; }
  services::UserManager& user_manager(std::size_t instance = 0);
  services::ChannelManager& channel_manager(std::uint32_t partition = 0);
  p2p::Tracker& tracker() { return *tracker_; }
  const geo::SyntheticGeo& geo() const { return *geo_; }
  PeerNode* root_node(util::ChannelId channel);
  services::RedirectionManager& redirection() { return redirection_; }
  const services::UserManagerDomain& um_domain() const { return *um_domain_; }
  const services::ChannelManagerPartition& cm_partition(std::uint32_t p) const {
    return *cm_partitions_.at(p);
  }
  std::size_t partition_count() const { return cm_partitions_.size(); }
  /// Clients owned by the deployment, departed/crashed ones included
  /// (remove_client is the only thing that drops one) — report input.
  const std::vector<std::unique_ptr<AsyncClient>>& clients() const {
    return clients_;
  }

  /// Well-known node ids.
  static constexpr util::NodeId kRedirectionNode = 1;
  static constexpr util::NodeId kUserManagerNode = 2;
  static constexpr util::NodeId kChannelPolicyNode = 3;
  static constexpr util::NodeId kChannelManagerBase = 10;   // + partition
  static constexpr util::NodeId kChannelRootBase = 100;     // + channel id
  /// Extra farm instances (instance >= 1; instance 0 keeps the well-known
  /// ids above). Keep channel ids below ~400 when using farms.
  static constexpr util::NodeId kUmInstanceBase = 500;      // + instance
  static constexpr util::NodeId kCmInstanceBase = 520;      // + partition*16 + instance
  static constexpr util::NodeId kClientBase = 1000;

 private:
  struct ChannelSource {
    std::unique_ptr<services::ChannelServer> server;
    std::unique_ptr<PeerNode> root;
    std::uint32_t partition = 0;
    /// Epoch request id whose rotation span the root currently has bound
    /// (released when the next rotation rebinds — hop-fate callbacks fire
    /// at arrival time, so the binding must outlive the announcement).
    std::uint64_t bound_epoch = 0;
  };
  /// One box of a manager farm. Only the manager behind the node and its
  /// durable replica differ by kind: exactly one of `um`/`cm` is set, and in
  /// durable mode the matching one of `dir`/`log`.
  struct FarmInstance {
    std::unique_ptr<services::UserManager> um;
    std::unique_ptr<services::ChannelManager> cm;
    std::unique_ptr<ServiceNode> node;
    util::NodeId id = util::kInvalidNode;
    util::NetAddr addr;
    std::uint32_t origin = 0;  // durable store's replication origin id
    bool up = true;
    /// Bumped by every restart: a recovery whose replay window closes after
    /// a later restart began must not re-attach the instance.
    std::uint64_t generation = 0;
    // Durable mode only: this instance's replica of the farm state + store.
    std::unique_ptr<services::UserDirectory> dir;
    std::unique_ptr<services::ViewingLog> log;
    std::unique_ptr<store::FarmStore> st;
    util::SimTime last_sync = 0;
  };
  struct Farm {
    FarmRef ref;
    std::vector<FarmInstance> instances;
  };

  void schedule_rotation(util::ChannelId id);
  void schedule_eviction(util::ChannelId id);
  void schedule_stale_sweep();
  void schedule_scrape();
  /// Point the CPM's partition info at the first live instance.
  void readvertise_partition(std::uint32_t partition);

  /// A manager frontend with the deployment's registry, processing model
  /// and overload policy (not yet attached).
  std::unique_ptr<ServiceNode> service_node(util::NodeId id, std::vector<Route> routes);

  // Farm internals: one path for every farm, kind-specific only in how
  // health is announced.
  /// Throws std::out_of_range when the farm does not exist.
  const Farm& farm(FarmRef ref) const;
  Farm& farm(FarmRef ref);
  void announce_health(const Farm& farm, const FarmInstance& inst);
  void crash(Farm& farm, FarmInstance& inst, FarmFault fault);
  void restart(Farm& farm, FarmInstance& inst);

  // Durable-state internals.
  void init_durable_state();
  void provision_user(const services::UserProvisioning& p);
  /// Journal one op at `self`; a critical op is also fsynced and shipped to
  /// every live sibling before this returns.
  void write_through(Farm& farm, FarmInstance& self, util::BytesView payload,
                     bool critical);
  /// Anti-entropy into `inst` from every live sibling, then fsync. Returns
  /// the number of ops pulled.
  std::size_t catch_up(Farm& farm, FarmInstance& inst);
  void schedule_replication();
  void replication_tick();

  DeploymentConfig config_;
  crypto::SecureRandom rng_;
  /// Always constructed (cheap); the transport only drives it on kSim.
  sim::Simulation sim_;
  /// The scheduling backend. Declared before everything that posts to it
  /// and destroyed after; the destructor shuts it down first.
  std::unique_ptr<transport::Transport> transport_;
  /// Declared before network_ and the nodes/clients: they all hold pointers
  /// into the registry/tracer, so these must be destroyed last.
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::unique_ptr<TraceInterceptor> trace_interceptor_;
  bool tracing_ = false;
  obs::TimeSeries* timeseries_ = nullptr;
  obs::SloMonitor* slo_ = nullptr;
  util::SimTime scrape_interval_ = 10 * util::kSecond;
  bool scraping_ = false;
  /// Rotation epoch ids live far above client request-id counters: client
  /// nodes double as relay peers, and both share the tracer's
  /// (actor, request_id) binding keyspace. Atomic: each channel's rotation
  /// task runs on its root's loop.
  std::atomic<std::uint64_t> next_epoch_{0};
  std::unique_ptr<Network> network_;

  std::unique_ptr<geo::SyntheticGeo> geo_;
  std::unique_ptr<services::AccountManager> accounts_;
  std::shared_ptr<services::UserManagerDomain> um_domain_;
  std::unique_ptr<services::ChannelPolicyManager> cpm_;
  std::vector<std::shared_ptr<services::ChannelManagerPartition>> cm_partitions_;
  std::unique_ptr<p2p::Tracker> tracker_;
  services::RedirectionManager redirection_;
  util::Bytes reference_binary_;

  std::unique_ptr<ServiceNode> redirection_node_;
  std::unique_ptr<ServiceNode> cpm_node_;
  /// [0] is the UM farm, [1 + p] the CM farm of partition p. Sized once in
  /// the constructor: callbacks hold pointers into it.
  std::vector<Farm> farms_;
  util::SimTime replication_interval_ = 0;
  bool replication_armed_ = false;
  std::map<util::ChannelId, ChannelSource> sources_;
  std::vector<std::unique_ptr<AsyncClient>> clients_;
  util::NodeId next_client_node_ = kClientBase;
};

}  // namespace p2pdrm::net
