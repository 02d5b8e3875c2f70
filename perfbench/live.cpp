// The two live workloads, both on ThreadTransport with real crypto:
//
//   live_zap        closed loop, 16 sessions in flight, each cycling one
//                   account through login, channel switches across both
//                   partitions as the macro-sim's session model draws them,
//                   and a fresh login (the control plane).
//   live_broadcast  open loop: four channels of 24 viewers in trees three
//                   deep; each source emits 1400-byte packets at a fixed
//                   rate while content keys rotate (the data plane).
//
// Layers are timed from outside the program: a bench-owned SendInterceptor
// timestamps packets at node boundaries, and the transport, network and
// registry counters are differenced across the timed window.
#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench_common.h"
#include "common.h"
#include "net/deployment.h"
#include "transport/thread_transport.h"
#include "util/wire.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace p2pdrm;
using net::MsgKind;
using util::SimTime;

constexpr SimTime kWarmup = 500 * util::kMillisecond;
/// Latency percentiles are taken per window of this length and reported as
/// the median over windows (see windowed_quantile). Two seconds hold over
/// 1000 switches on live_zap, so each window's p99 has ten samples beyond it.
constexpr SimTime kTailWindow = 2 * util::kSecond;
constexpr std::uint64_t kDeploymentSeed = 20110620;
constexpr std::uint64_t kClientKeySeed = 0x6b657973;

std::size_t host_loops() {
  return std::min<std::size_t>(
      4, std::max<unsigned>(1, std::thread::hardware_concurrency()));
}

/// Deployment shared by both live workloads: 1024-bit managers and channel
/// roots, sub-millisecond lossless links, no retransmissions expected. The
/// deployment's own seed (manager keys, link delay draws, tracker sampling)
/// is fixed, so every run measures the same system; the run's --seed drives
/// the inputs: accounts, zap sequences and payload bytes. Client keys come
/// from a fixed stream as well (make_client), so set-up does the same key
/// generation work on every run.
net::DeploymentConfig live_config() {
  net::DeploymentConfig cfg;
  cfg.seed = kDeploymentSeed;
  cfg.key_bits = 1024;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = host_loops();
  cfg.default_link.latency.floor = 100 * util::kMicrosecond;
  cfg.default_link.latency.median = 400 * util::kMicrosecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;
  cfg.request_timeout = 2 * util::kSecond;
  return cfg;
}

/// Clients use 512-bit keys so that set-up stays bounded. `keys` is the
/// run's fixed client-key stream.
std::unique_ptr<net::AsyncClient> make_client(net::Deployment& d,
                                              const std::string& email,
                                              const std::string& password,
                                              std::size_t peer_capacity,
                                              crypto::SecureRandom& keys) {
  net::AsyncClient::Config cc =
      d.make_client_config(email, password, d.geo().region_at(0));
  cc.key_bits = 512;
  cc.peer_capacity = peer_capacity;
  auto client = std::make_unique<net::AsyncClient>(
      std::move(cc), d.network(), crypto::SecureRandom(keys.next_u64()));
  return client;
}

std::string random_password(crypto::SecureRandom& rng) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : rng.bytes(8)) {
    out += kHex[b >> 4];
    out += kHex[b & 15];
  }
  return out;
}

/// Fields of an envelope header, read without copying the payload.
struct Header {
  MsgKind kind{};
  std::uint64_t request_id = 0;
  std::uint32_t channel = 0;  // content packets only
  std::uint64_t seq = 0;      // content packets only
};

bool read_header(const util::Bytes* data, Header& h) {
  if (data == nullptr || data->size() < 9) return false;
  try {
    util::WireReader r(*data);
    h.kind = static_cast<MsgKind>(r.u8());
    h.request_id = r.u64();
    if (h.kind == MsgKind::kContent) {
      r.u32();  // payload length
      h.channel = r.u32();
      r.u8();  // key serial
      h.seq = r.u64();
    }
  } catch (const util::WireError&) {
    return false;
  }
  return true;
}

/// The only probe an untraced broadcast run carries: the arrival time of
/// every content packet at every viewer, in a viewer × sequence-number
/// table. The table is allocated and filled before the timed window, so
/// its pages add nothing to the memory the timed load allocates. Each cell
/// is written once, from its viewer's loop, so no locking is needed.
class ArrivalProbe final : public net::SendInterceptor {
 public:
  ArrivalProbe(util::NodeId first_viewer, std::size_t viewers, std::size_t packets)
      : first_viewer_(first_viewer), viewers_(viewers), packets_(packets),
        at_(viewers * packets, -1) {}

  Verdict on_send(const net::SendContext&) override { return {}; }

  void on_packet_fate(const net::SendContext& ctx, net::PacketFate fate,
                      SimTime) override {
    if (fate != net::PacketFate::kDelivered || ctx.to < first_viewer_ ||
        ctx.to - first_viewer_ >= viewers_) {
      return;
    }
    Header h;
    if (!read_header(ctx.data, h) || h.kind != MsgKind::kContent || h.seq >= packets_) {
      return;
    }
    at_[(ctx.to - first_viewer_) * packets_ + h.seq] = ctx.now;
    arrivals_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t arrivals() const { return arrivals_.load(std::memory_order_relaxed); }
  /// Arrival time of packet `seq` at viewer `viewer`, or -1 if it never
  /// arrived. Read only after the transport has shut down.
  SimTime arrival(std::size_t viewer, std::size_t seq) const {
    return at_[viewer * packets_ + seq];
  }

 private:
  util::NodeId first_viewer_;
  std::size_t viewers_, packets_;
  std::vector<SimTime> at_;
  std::atomic<std::uint64_t> arrivals_{0};
};

/// The traced run's per-hop probe. For every packet it records
///   hop wait   arrival - (send + sampled link delay): time the delivery
///              waited for its destination loop;
///   residence  request delivery -> response send at the serving node, per
///              request kind (the handler's own time on its loop);
/// and it follows every request/response exchange from the client's first
/// send to the response's arrival, splitting it into link delay (network),
/// loop waits of both packets (queue), residence (service) and time lost to
/// retransmission. State is sharded by node; each shard has its own lock
/// because sends and arrivals of one packet run on different loops, and no
/// code path holds two shard locks at once.
class HopProbe final : public net::SendInterceptor {
 public:
  static constexpr std::array<MsgKind, 7> kRequests = {
      MsgKind::kRedirectRequest, MsgKind::kLogin1Request,
      MsgKind::kLogin2Request,   MsgKind::kChannelListRequest,
      MsgKind::kSwitch1Request,  MsgKind::kSwitch2Request,
      MsgKind::kJoinRequest};
  static constexpr std::array<const char*, 7> kNames = {
      "redirect", "login1", "login2", "chanlist", "switch1", "switch2", "join"};

  struct Exchange {
    util::NodeId client = 0;
    int kind = -1;  // index into kRequests
    SimTime first_send = 0, last_send = 0, done = 0;
    double network = 0, queue = 0, service = 0;
  };

  explicit HopProbe(std::size_t groups) : shards_(groups) {}

  Verdict on_send(const net::SendContext& ctx) override {
    Header h;
    if (!read_header(ctx.data, h)) return {};
    if (const int k = request_index(h.kind); k >= 0) {
      with_exchange(ctx.from, h.request_id, true, [&](Exchange& e) {
        if (e.kind < 0) {
          e.client = ctx.from;
          e.kind = k;
          e.first_send = ctx.now;
        }
        e.last_send = ctx.now;
      });
      return {};
    }
    const int k = request_index(static_cast<MsgKind>(static_cast<int>(h.kind) - 1));
    if (k < 0) return {};
    // A response leaving its server: close the residence interval opened
    // when the matching request was delivered there.
    double residence = -1;
    {
      Shard& s = shard(ctx.from);
      std::lock_guard<std::mutex> lk(s.mu);
      const auto it = s.open.find(Key{ctx.from, ctx.to, h.request_id, k});
      if (it == s.open.end()) return {};
      residence = static_cast<double>(ctx.now - it->second);
      s.residence[k].push_back(residence);
      s.open.erase(it);
    }
    with_exchange(ctx.to, h.request_id, false,
                  [&](Exchange& e) { e.service += residence; });
    return {};
  }

  void on_packet_fate(const net::SendContext& ctx, net::PacketFate fate,
                      SimTime delay) override {
    if (fate != net::PacketFate::kInFlight && fate != net::PacketFate::kDelivered) {
      return;
    }
    Header h;
    if (!read_header(ctx.data, h)) return;
    const bool request = request_index(h.kind) >= 0;
    const bool response =
        request_index(static_cast<MsgKind>(static_cast<int>(h.kind) - 1)) >= 0;
    const util::NodeId client = request ? ctx.from : ctx.to;
    const Key hop{ctx.from, ctx.to, h.kind == MsgKind::kContent ? h.seq : h.request_id,
                  static_cast<int>(h.kind)};
    if (fate == net::PacketFate::kInFlight) {
      {
        Shard& s = shard(ctx.to);
        std::lock_guard<std::mutex> lk(s.mu);
        s.due[hop] = ctx.now + delay;
      }
      if (request || response) {
        with_exchange(client, h.request_id, false,
                      [&](Exchange& e) { e.network += static_cast<double>(delay); });
      }
      return;
    }
    double wait = 0;
    {
      Shard& s = shard(ctx.to);
      std::lock_guard<std::mutex> lk(s.mu);
      const auto it = s.due.find(hop);
      if (it != s.due.end()) {
        wait = static_cast<double>(ctx.now - it->second);
        s.hop_wait.push_back(wait);
        s.due.erase(it);
      }
      if (request) {
        s.open[Key{ctx.to, ctx.from, h.request_id, request_index(h.kind)}] = ctx.now;
      }
    }
    if (!request && !response) return;
    Shard& s = shard(client);
    std::lock_guard<std::mutex> lk(s.mu);
    const auto it = s.exchanges.find(Key{client, 0, h.request_id, 0});
    if (it == s.exchanges.end()) return;
    it->second.queue += wait;
    if (response) {
      it->second.done = ctx.now;
      s.finished.push_back(it->second);
      s.exchanges.erase(it);
    }
  }

  /// Read only after the transport has shut down.
  std::vector<double> hop_wait() const {
    std::vector<double> all;
    for (const Shard& s : shards_) all.insert(all.end(), s.hop_wait.begin(), s.hop_wait.end());
    return all;
  }
  std::vector<double> residence(std::size_t kind) const {
    std::vector<double> all;
    for (const Shard& s : shards_) {
      all.insert(all.end(), s.residence[kind].begin(), s.residence[kind].end());
    }
    return all;
  }
  std::vector<Exchange> exchanges() const {
    std::vector<Exchange> all;
    for (const Shard& s : shards_) all.insert(all.end(), s.finished.begin(), s.finished.end());
    return all;
  }

 private:
  struct Key {
    util::NodeId a, b;
    std::uint64_t id;
    int kind;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.id * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<std::uint64_t>(k.a) << 32 | k.b) + 0x7f4a7c15ull + (h << 6);
      return static_cast<std::size_t>(h ^ static_cast<std::uint64_t>(k.kind));
    }
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<Key, SimTime, KeyHash> due;
    std::unordered_map<Key, SimTime, KeyHash> open;
    std::unordered_map<Key, Exchange, KeyHash> exchanges;  // by (client, id)
    std::vector<Exchange> finished;
    std::vector<double> hop_wait;
    std::array<std::vector<double>, kRequests.size()> residence;
  };

  static int request_index(MsgKind kind) {
    for (std::size_t i = 0; i < kRequests.size(); ++i) {
      if (kRequests[i] == kind) return static_cast<int>(i);
    }
    return -1;
  }
  Shard& shard(util::NodeId node) { return shards_[node % shards_.size()]; }

  /// Run `fn` on the open exchange (client, id) under its shard's lock;
  /// only a request's first send may open one.
  template <typename Fn>
  void with_exchange(util::NodeId client, std::uint64_t id, bool open, Fn&& fn) {
    Shard& s = shard(client);
    std::lock_guard<std::mutex> lk(s.mu);
    const Key key{client, 0, id, 0};
    if (open) {
      fn(s.exchanges[key]);
    } else if (const auto it = s.exchanges.find(key); it != s.exchanges.end()) {
      fn(it->second);
    }
  }

  std::vector<Shard> shards_;
};

/// Split every protocol round into network, queue, service, retransmission
/// and client time from the probe's exchange records. Client time is the
/// client's own work between the exchanges of one op (e.g. signing the
/// SWITCH2 request, building the peer before JOIN), so the parts of an op's
/// rounds add up to the op's latency. `ops` holds each client's op
/// intervals in time order.
void exchange_split_metrics(
    const std::vector<HopProbe::Exchange>& exchanges,
    const std::map<util::NodeId, std::vector<std::pair<SimTime, SimTime>>>& ops,
    Result& r) {
  // Client round vocabulary: the redirect counts toward LOGIN1, the channel
  // list toward LOGIN2 (as in AsyncClient's per-round feedback).
  static constexpr std::array<int, 7> kRoundOf = {0, 0, 1, 1, 2, 3, 4};
  static constexpr std::array<const char*, 5> kRounds = {"login1", "login2", "switch1",
                                                         "switch2", "join"};
  struct Sum {
    double n = 0, network = 0, queue = 0, service = 0, retrans = 0, client = 0;
  };
  std::array<Sum, 5> sums{};
  std::map<util::NodeId, std::vector<const HopProbe::Exchange*>> by_client;
  for (const HopProbe::Exchange& e : exchanges) by_client[e.client].push_back(&e);
  for (auto& [client, list] : by_client) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->first_send < b->first_send;
    });
    const auto op_it = ops.find(client);
    if (op_it == ops.end()) continue;
    const std::vector<std::pair<SimTime, SimTime>>& intervals = op_it->second;
    std::size_t op = 0;
    SimTime cursor = 0;  // end of the previous exchange within the current op
    for (std::size_t i = 0; i < list.size(); ++i) {
      const HopProbe::Exchange& e = *list[i];
      if (e.kind < 0) continue;
      while (op < intervals.size() && intervals[op].second < e.first_send) ++op;
      if (op == intervals.size() || intervals[op].first > e.first_send) continue;
      const auto [op_start, op_done] = intervals[op];
      Sum& s = sums[kRoundOf[e.kind]];
      s.n += 1;
      s.network += e.network;
      s.queue += e.queue;
      s.service += e.service;
      s.retrans += static_cast<double>(e.last_send - e.first_send);
      s.client += static_cast<double>(e.first_send - std::max(cursor, op_start));
      cursor = e.done;
      const bool last_in_op =
          i + 1 == list.size() || list[i + 1]->first_send > op_done;
      if (last_in_op) s.client += static_cast<double>(std::max<SimTime>(0, op_done - e.done));
    }
  }
  for (std::size_t k = 0; k < kRounds.size(); ++k) {
    const Sum& s = sums[k];
    const double n = s.n == 0 ? 1.0 : s.n;
    const std::string base = std::string("split.") + kRounds[k];
    r.set(base + ".network_us", s.network / n, "us");
    r.set(base + ".queue_us", s.queue / n, "us");
    r.set(base + ".service_us", s.service / n, "us");
    r.set(base + ".retrans_us", s.retrans / n, "us");
    r.set(base + ".client_us", s.client / n, "us");
  }
}

/// Loop and network counters snapshotted at one edge of the timed window.
struct WindowEdge {
  SimTime at = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  std::vector<obs::LoopStats> loops;
  std::uint64_t packets = 0;
};

WindowEdge snapshot(net::Deployment& d) {
  WindowEdge e;
  e.at = d.now();
  e.cpu_s = process_cpu_s();
  e.rss_mb = peak_rss_mb();
  e.loops = dynamic_cast<transport::ThreadTransport&>(d.transport()).loop_stats();
  e.packets = d.network().packets_sent();
  return e;
}

/// Sleep until transport time `t`.
void sleep_until(net::Deployment& d, SimTime t) {
  const SimTime now = d.now();
  if (t > now) std::this_thread::sleep_for(std::chrono::microseconds(t - now));
}

/// Window-scoped loop utilisation, the network and transport layer figures
/// shared by both live workloads (traced runs only).
void live_layer_metrics(net::Deployment& d, const WindowEdge& w0,
                        const WindowEdge& w1, double window_ops,
                        double total_ops, std::uint64_t retransmits,
                        const HopProbe& hops, Result& r) {
  const double span = static_cast<double>(w1.at - w0.at);
  double busy_max = 0, busy_sum = 0;
  std::uint64_t tasks = 0;
  for (std::size_t i = 0; i < w1.loops.size(); ++i) {
    const double busy =
        static_cast<double>(w1.loops[i].busy_us - w0.loops[i].busy_us) / span;
    r.set("transport.loop" + std::to_string(i) + "_busy_frac", busy, "ratio");
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    tasks += w1.loops[i].tasks - w0.loops[i].tasks;
  }
  r.set("transport.loop_busy_frac_max", busy_max, "ratio");
  r.set("transport.loop_busy_frac_mean",
        busy_sum / static_cast<double>(w1.loops.size()), "ratio");
  r.set("transport.tasks_per_op", static_cast<double>(tasks) / window_ops, "count");
  const std::vector<double> waits = hops.hop_wait();
  r.set("transport.hop_wait_us_p50", quantile(waits, 0.5), "us");
  r.set("transport.hop_wait_us_p99", quantile(waits, 0.99), "us");
  r.set("transport.sched_us_p99",
        dynamic_cast<transport::ThreadTransport&>(d.transport()).sched_latency().p99(),
        "us");

  r.set("net.packets_per_op",
        static_cast<double>(w1.packets - w0.packets) / window_ops, "count");
  r.set("net.retransmits_per_op", static_cast<double>(retransmits) / total_ops,
        "count");
  const obs::Counter* busy = d.registry().find_counter("server.busy_sent");
  r.set("net.busy_sent", busy == nullptr ? 0.0 : static_cast<double>(busy->value()),
        "count");
  r.set("net.drops", static_cast<double>(d.network().packets_dropped()), "count");

  for (std::size_t k = 0; k < HopProbe::kNames.size(); ++k) {
    const std::vector<double> res = hops.residence(k);
    const std::string base = std::string("services.") + HopProbe::kNames[k];
    r.set(base + "_us_p50", quantile(res, 0.5), "us");
    r.set(base + "_us_p99", quantile(res, 0.99), "us");
  }
}

constexpr int kSetupRepeats = 3;

/// Build a workload's rig kSetupRepeats times and keep the last one. Each
/// build is timed in CPU and wall seconds; the medians are reported as
/// setup_cpu_s and setup_s. The rigs before the last are torn down at once.
template <typename Build>
auto timed_setup(Build&& build, Result& r) {
  std::vector<double> wall, cpu;
  for (int i = 1;; ++i) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    auto rig = build();
    cpu.push_back(process_cpu_s() - cpu0);
    wall.push_back(seconds_since(t0));
    if (i == kSetupRepeats) {
      r.set("setup_s", median(wall), "s");
      r.set("setup_cpu_s", median(cpu), "s");
      return rig;
    }
    rig->d->transport().shutdown();
  }
}

// --------------------------------------------------------------------------
// live_zap

constexpr std::size_t kZapSlots = 16;
constexpr util::ChannelId kZapChannels = 8;
constexpr std::uint32_t kZapPartitions = 2;
/// peak_rss_mb is read once this many logins and switches have completed,
/// so it does not depend on how many ops fit into the window. At about
/// 900 ops/s on a 4-vCPU host, that is 9 s into the run.
constexpr std::uint64_t kRssOps = 8000;

std::uint32_t zap_partition(util::ChannelId ch) {
  return static_cast<std::uint32_t>(ch % kZapPartitions);
}

struct Sample {
  SimTime start, done;
  double ms;
};

/// One closed-loop session. Everything but `idle` is confined to the
/// client's loop while the transport runs.
struct Slot {
  std::unique_ptr<net::AsyncClient> client;
  crypto::SecureRandom rng{std::uint64_t{0}};
  std::size_t switches_left = 0;
  util::ChannelId channel = 0;
  std::vector<Sample> logins, switches;
  std::vector<double> gen_lag_us;
  std::uint64_t attempted = 0, failed = 0, bad_tickets = 0;
  std::atomic<bool> idle{false};
};

struct ZapRig {
  std::unique_ptr<net::Deployment> d;
  std::vector<std::unique_ptr<Slot>> slots;
};

/// The viewing behaviour of the macro-sim's calibrated model
/// (bench::paper_config()): a session lasts a lognormal time (median
/// 25 min), the viewer switches channel at exponential gaps (mean 12 min),
/// and each switch picks a channel by Zipf popularity. The closed loop
/// leaves out the time between ops: a session is a login, a first tune-in,
/// one switch per gap that fits in the session, and then a fresh login.
/// Ticket renewals are not part of the mix.
class ZapLoop {
 public:
  ZapLoop(net::Deployment& d, std::vector<std::unique_ptr<Slot>>& slots)
      : d_(d),
        slots_(slots),
        model_(bench::paper_config().session),
        zipf_(kZapChannels, bench::paper_config().zipf_exponent) {}

  void start() {
    for (auto& s : slots_) {
      Slot* slot = s.get();
      d_.network().post(slot->client->config().node, 0, [this, slot] { next(*slot); });
    }
  }
  void stop() { stop_.store(true); }
  bool drained() const {
    for (const auto& s : slots_) {
      if (!s->idle.load()) return false;
    }
    return true;
  }
  /// Logins and switches completed so far, failed ones included.
  std::uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }

 private:
  /// Switches of one session: switch gaps are drawn until they overrun the
  /// session's length.
  std::size_t session_switches(crypto::SecureRandom& rng) const {
    const SimTime length = model_.sample_duration(rng);
    std::size_t n = 0;
    for (SimTime t = model_.sample_switch_gap(rng); t < length;
         t += model_.sample_switch_gap(rng)) {
      ++n;
    }
    return n;
  }

  void next(Slot& s) {
    if (stop_.load()) {
      s.idle.store(true);
      return;
    }
    ++s.attempted;
    net::AsyncClient* c = s.client.get();
    const SimTime t0 = d_.now();
    if (s.switches_left == 0) {
      c->login([this, &s, c, t0](core::DrmError err) {
        const SimTime t1 = d_.now();
        if (err == core::DrmError::kOk && c->user_ticket()) {
          s.logins.push_back({t0, t1, static_cast<double>(t1 - t0) / 1000.0});
          s.bad_tickets += !c->user_ticket()->verify(d_.um_domain().keys.pub);
          s.switches_left = 1 + session_switches(s.rng);
          s.channel = 0;
        } else {
          ++s.failed;
        }
        then(s, t1);
      });
      return;
    }
    // A switch changes channel: a draw of the current one is redrawn.
    util::ChannelId ch = s.channel;
    while (ch == s.channel) ch = static_cast<util::ChannelId>(1 + zipf_.sample(s.rng));
    c->switch_channel(ch, [this, &s, c, ch, t0](core::DrmError err) {
      const SimTime t1 = d_.now();
      if (err == core::DrmError::kOk && c->channel_ticket()) {
        s.switches.push_back({t0, t1, static_cast<double>(t1 - t0) / 1000.0});
        const core::SignedChannelTicket& t = *c->channel_ticket();
        s.bad_tickets += t.ticket.channel_id != ch ||
                         !t.verify(d_.cm_partition(zap_partition(ch)).keys.pub);
        s.channel = ch;
        --s.switches_left;
      } else {
        ++s.failed;
        s.switches_left = 0;  // start over with a fresh login
      }
      then(s, t1);
    });
  }

  /// Post the slot's next op through its loop's ready queue; the queueing
  /// delay is the generator lag.
  void then(Slot& s, SimTime done) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    d_.network().post(s.client->config().node, 0, [this, &s, done] {
      s.gen_lag_us.push_back(static_cast<double>(d_.now() - done));
      next(s);
    });
  }

  net::Deployment& d_;
  std::vector<std::unique_ptr<Slot>>& slots_;
  const workload::SessionModel model_;
  const workload::ZipfChannels zipf_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> completed_{0};
};

/// The newest fresh-issue ViewingLog entry of each account, across every
/// replica of both partitions, names the channel its client is watching:
/// the SWITCH2 write-through reached the log. (Each account is driven by
/// one client, so a second live session of an account cannot arise here.)
bool newest_entries_name_current_channels(
    net::Deployment& d, const std::vector<std::unique_ptr<Slot>>& slots) {
  for (const std::unique_ptr<Slot>& s : slots) {
    if (!s->client->user_ticket() || !s->client->channel_ticket()) continue;
    const util::UserIN user = s->client->user_ticket()->ticket.user_in;
    const services::ViewingLog::Entry* newest = nullptr;
    for (std::uint32_t p = 0; p < kZapPartitions; ++p) {
      for (std::size_t i = 0; i < d.cm_instance_count(p); ++i) {
        const services::ViewingLog* log = d.cm_viewing_log(p, i);
        if (log == nullptr) return false;
        for (util::ChannelId ch = 1; ch <= kZapChannels; ++ch) {
          const services::ViewingLog::Entry* e = log->latest(user, ch);
          if (e != nullptr && (newest == nullptr || e->time > newest->time)) newest = e;
        }
      }
    }
    if (newest == nullptr ||
        newest->channel != s->client->channel_ticket()->ticket.channel_id) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<ZapRig> build_zap(const Options& opt) {
  auto rig = std::make_unique<ZapRig>();
  crypto::SecureRandom rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x7a6170);
  crypto::SecureRandom client_keys(kClientKeySeed);
  net::DeploymentConfig cfg = live_config();
  cfg.partitions = kZapPartitions;
  cfg.um_instances = 2;
  cfg.cm_instances = 2;
  cfg.durability.enabled = true;
  cfg.durability.sync_fresh_issues = true;
  // No gossip ticker. FarmStore has no locking, and the ticker runs on
  // loop 0 while each write-through mutates the sibling replica's store
  // from the issuing CM's loop; on ThreadTransport the two race. Without
  // the ticker, each store is written from one loop only. (The CPM
  // advertises only instance 0 of a partition, so instance 1 takes no
  // requests of its own.)
  cfg.durability.replication_interval = 0;
  // Switched-away children linger at the old parent until their tickets
  // lapse; roots must not run out of slots during the run.
  cfg.root_peer_capacity = 1u << 20;
  rig->d = std::make_unique<net::Deployment>(cfg);
  net::Deployment& d = *rig->d;

  const geo::RegionId region = d.geo().region_at(0);
  services::ChannelServerConfig server;
  server.rekey_interval = 10 * util::kMinute;  // no rotation while timed
  for (util::ChannelId ch = 1; ch <= kZapChannels; ++ch) {
    d.add_regional_channel(ch, "zap-" + std::to_string(ch), region, zap_partition(ch));
    d.start_channel_server(ch, server);
  }

  for (std::size_t i = 0; i < kZapSlots; ++i) {
    auto slot = std::make_unique<Slot>();
    const std::string email =
        "zap" + std::to_string(opt.seed) + "-" + std::to_string(i) + "@bench.example";
    const std::string password = random_password(rng);
    if (!d.add_user(email, password)) throw std::runtime_error("add_user failed");
    slot->client = make_client(d, email, password, 4, client_keys);
    slot->client->bind_observability(&d.registry(), nullptr);
    slot->rng = crypto::SecureRandom(rng.next_u64());
    // Room for every op of the run, so that no loop reallocates while timed.
    const std::size_t ops = static_cast<std::size_t>(200 * (opt.seconds + 5));
    slot->logins.reserve(ops);
    slot->switches.reserve(ops);
    slot->gen_lag_us.reserve(ops);
    rig->slots.push_back(std::move(slot));
  }
  return rig;
}

}  // namespace

Result run_live_zap(const Options& opt) {
  Result r;
  const std::unique_ptr<ZapRig> rig = timed_setup([&] { return build_zap(opt); }, r);
  net::Deployment& d = *rig->d;
  const std::vector<std::unique_ptr<Slot>>& slots = rig->slots;
  std::unique_ptr<HopProbe> hops;
  if (opt.trace) {
    hops = std::make_unique<HopProbe>(host_loops());
    d.enable_tracing();
    for (auto& s : slots) s->client->bind_observability(&d.registry(), &d.tracer());
    d.network().add_interceptor(hops.get());
  }

  ZapLoop zap(d, rig->slots);
  const SimTime t_start = d.now();
  zap.start();
  const SimTime ws = t_start + kWarmup;
  const SimTime we = ws + static_cast<SimTime>(opt.seconds * 1e6);
  sleep_until(d, ws);
  const WindowEdge w0 = snapshot(d);
  double rss_mb = -1;
  std::uint64_t rss_ops = kRssOps;
  while (d.now() < we) {
    if (rss_mb < 0 && zap.completed() >= kRssOps) rss_mb = peak_rss_mb();
    sleep_until(d, std::min(we, d.now() + 2 * util::kMillisecond));
  }
  const WindowEdge w1 = snapshot(d);
  if (rss_mb < 0) {  // fewer than kRssOps ops in the whole run
    rss_mb = w1.rss_mb;
    rss_ops = zap.completed();
  }
  zap.stop();
  const Clock::time_point drain_start = Clock::now();
  while (!zap.drained() && seconds_since(drain_start) < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool drained = zap.drained();
  d.transport().shutdown();

  std::vector<std::pair<SimTime, double>> login_ms, switch_ms;
  std::vector<double> gen_lag;
  std::uint64_t window_ops = 0, total_ops = 0, retransmits = 0, bad_tickets = 0;
  for (const std::unique_ptr<Slot>& s : slots) {
    r.attempted += s->attempted;
    r.failed += s->failed;
    bad_tickets += s->bad_tickets;
    retransmits += s->client->retransmits();
    total_ops += s->logins.size() + s->switches.size();
    for (const Sample& x : s->logins) {
      if (x.done < w0.at || x.done > w1.at) continue;
      login_ms.emplace_back(x.done, x.ms);
      ++window_ops;
    }
    for (const Sample& x : s->switches) {
      if (x.done < w0.at || x.done > w1.at) continue;
      switch_ms.emplace_back(x.done, x.ms);
      ++window_ops;
    }
    gen_lag.insert(gen_lag.end(), s->gen_lag_us.begin(), s->gen_lag_us.end());
  }
  const double span_s = static_cast<double>(w1.at - w0.at) / 1e6;

  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("rss_read_at_ops", static_cast<double>(rss_ops), "count");
  r.set("fail_ratio",
        static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
        "ratio");
  // Completed ops per whole second of the window; the interquartile mean
  // over seconds ignores the odd stalled or catch-up second.
  std::vector<double> per_second(static_cast<std::size_t>(span_s), 0.0);
  for (const auto* samples : {&login_ms, &switch_ms}) {
    for (const auto& [done, ms] : *samples) {
      const auto k = static_cast<std::size_t>((done - w0.at) / util::kSecond);
      if (k < per_second.size()) per_second[k] += 1;
    }
  }
  std::sort(per_second.begin(), per_second.end());
  const std::size_t quarter = per_second.size() / 4;
  double sum = 0;
  for (std::size_t k = quarter; k < per_second.size() - quarter; ++k) sum += per_second[k];
  r.set("ops_per_s", sum / static_cast<double>(per_second.size() - 2 * quarter), "1/s");
  r.set("cpu_us_per_op",
        (w1.cpu_s - w0.cpu_s) * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, window_ops)),
        "us");
  r.set("login_ms_p50", windowed_quantile(login_ms, w0.at, kTailWindow, 0.5), "ms");
  r.set("login_ms_p99", windowed_quantile(login_ms, w0.at, kTailWindow, 0.99), "ms");
  r.set("switch_ms_p50", windowed_quantile(switch_ms, w0.at, kTailWindow, 0.5), "ms");
  r.set("switch_ms_p99", windowed_quantile(switch_ms, w0.at, kTailWindow, 0.99), "ms");
  r.set("login_samples", static_cast<double>(login_ms.size()), "count");
  r.set("switch_samples", static_cast<double>(switch_ms.size()), "count");
  r.set("bench.gen_lag_ms_p99", quantile(gen_lag, 0.99) / 1000.0, "ms");

  r.check("every session drained after the timed window", drained);
  r.check("every live op returned kOk", r.failed == 0);
  r.check("every issued ticket verifies under its manager's key", bad_tickets == 0);
  r.check("every account's newest ViewingLog entry names its current channel",
          newest_entries_name_current_channels(d, slots));

  if (opt.trace) {
    live_layer_metrics(d, w0, w1, static_cast<double>(window_ops),
                       static_cast<double>(total_ops), retransmits, *hops, r);
    // Write-through cost of SWITCH2: journal records (all replicas) per
    // completed switch, and their size from the durable journal images.
    std::uint64_t records = 0, sampled_records = 0, sampled_bytes = 0;
    for (std::uint32_t p = 0; p < kZapPartitions; ++p) {
      for (std::size_t i = 0; i < d.cm_instance_count(p); ++i) {
        const store::Journal& j = d.cm_store(p, i)->journal();
        records += j.next_seq() - 1;
        const store::Journal::ReplayResult image =
            store::Journal::replay(j.durable(), nullptr);
        sampled_records += image.records.size();
        sampled_bytes += image.valid_bytes;
      }
    }
    std::uint64_t switches = 0;
    for (const auto& s : slots) switches += s->switches.size();
    const double per_switch =
        static_cast<double>(records) / static_cast<double>(std::max<std::uint64_t>(1, switches));
    r.set("store.records_per_switch", per_switch, "count");
    r.set("store.bytes_per_switch",
          sampled_records == 0 ? 0.0
                               : per_switch * static_cast<double>(sampled_bytes) /
                                     static_cast<double>(sampled_records),
          "bytes");
    // The critical-path analyzer reads a live trace but credits servers only
    // with the modeled processing delay (zero here), so the live round split
    // comes from the probe's exchange timestamps instead.
    std::map<util::NodeId, std::vector<std::pair<SimTime, SimTime>>> ops;
    for (const auto& s : slots) {
      auto& list = ops[s->client->config().node];
      for (const Sample& x : s->logins) list.emplace_back(x.start, x.done);
      for (const Sample& x : s->switches) list.emplace_back(x.start, x.done);
      std::sort(list.begin(), list.end());
    }
    exchange_split_metrics(hops->exchanges(), ops, r);
  }
  return r;
}

// --------------------------------------------------------------------------
// live_broadcast

namespace {

constexpr util::ChannelId kCastChannels = 4;
constexpr std::size_t kViewersPerChannel = 24;
/// Packets per second and channel. The paper states no stream bitrate, so
/// this is a load point, not a stream model: 250 packets of 1400 bytes
/// (2.8 Mbit/s) per channel keep each of the 4 loops about 30 % busy in the
/// timed window on a 4-vCPU host (transport.loop*_busy_frac). Relay and
/// packet crypto then dominate the work, and delivery latency is not yet
/// bound by queueing.
constexpr double kPacketsPerSecond = 250;
constexpr std::size_t kPayloadBytes = 1400;
constexpr std::size_t kTreeFanout = 3;     // root and peer capacity
constexpr SimTime kRekeyInterval = 2 * util::kSecond;

/// Depth of `node` below its channel root (1 = the root's child).
std::size_t depth_of(util::NodeId node,
                     const std::map<util::NodeId, net::AsyncClient*>& by_node) {
  std::size_t depth = 0;
  while (depth < 64) {
    ++depth;
    const auto it = by_node.find(node);
    if (it == by_node.end() || !it->second->parent()) return depth;
    const util::NodeId parent = *it->second->parent();
    if (by_node.find(parent) == by_node.end()) return depth;  // the root
    node = parent;
  }
  return depth;
}

struct CastRig {
  std::unique_ptr<net::Deployment> d;
  std::vector<std::unique_ptr<net::AsyncClient>> viewers;
  std::vector<util::ChannelId> channel_of;
  std::vector<util::Bytes> payloads;
  std::size_t joined = 0;
  bool joined_in_time = false;
  SimTime last_rotation = 0;
};

std::unique_ptr<CastRig> build_cast(const Options& opt) {
  auto rig = std::make_unique<CastRig>();
  crypto::SecureRandom rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x63617374);
  crypto::SecureRandom client_keys(kClientKeySeed);
  net::DeploymentConfig cfg = live_config();
  cfg.root_peer_capacity = kTreeFanout;
  rig->d = std::make_unique<net::Deployment>(cfg);
  net::Deployment& d = *rig->d;

  const geo::RegionId region = d.geo().region_at(0);
  for (util::ChannelId ch = 1; ch <= kCastChannels; ++ch) {
    d.add_regional_channel(ch, "cast-" + std::to_string(ch), region);
  }

  std::vector<std::unique_ptr<net::AsyncClient>>& viewers = rig->viewers;
  for (std::size_t i = 0; i < kCastChannels * kViewersPerChannel; ++i) {
    const std::string email =
        "cast" + std::to_string(opt.seed) + "-" + std::to_string(i) + "@bench.example";
    const std::string password = random_password(rng);
    if (!d.add_user(email, password)) throw std::runtime_error("add_user failed");
    viewers.push_back(make_client(d, email, password, kTreeFanout, client_keys));
    viewers.back()->bind_observability(&d.registry(), nullptr);
    // ArrivalProbe indexes viewers by node id.
    if (viewers.back()->config().node != viewers.front()->config().node + i) {
      throw std::runtime_error("viewer node ids are not consecutive");
    }
    rig->channel_of.push_back(static_cast<util::ChannelId>(1 + i % kCastChannels));
  }
  // Key timing. The rotation task runs every rekey_interval and mints each
  // key once now >= activation - announce_lead, so with a lead shorter than
  // the interval every key would activate the moment it is announced and
  // race the content down the tree. A lead of 1.5 intervals makes every key
  // after the first rotation arrive one interval early. A joining peer is
  // handed only its parent's newest key, so all JOINs finish before the
  // first rotation, and content starts once every channel's first rotation
  // has fanned out. (start_channel_server generates the root's key before
  // it arms the rotation timer, so each channel's first rotation is due
  // one interval after the call returns.)
  services::ChannelServerConfig server;
  server.rekey_interval = kRekeyInterval;
  server.announce_lead = kRekeyInterval * 3 / 2;
  SimTime first_rotation = 0;
  for (util::ChannelId ch = 1; ch <= kCastChannels; ++ch) {
    d.start_channel_server(ch, server);
    rig->last_rotation = d.now() + kRekeyInterval;
    if (ch == 1) first_rotation = rig->last_rotation;
  }
  // Trees are built level by level: a level's viewers join concurrently
  // while only the levels above them are announced, then announce
  // themselves. With fan-out 3 every tree holds 3 + 9 + 12 viewers and is
  // exactly three deep, whatever peers the tracker happens to sample.
  std::size_t next = 0;
  for (std::size_t level_size = kTreeFanout; next < viewers.size();
       level_size *= kTreeFanout) {
    const std::size_t end =
        std::min(viewers.size(), next + level_size * kCastChannels);
    std::vector<std::promise<core::DrmError>> done(end - next);
    std::vector<std::future<core::DrmError>> results;
    for (auto& p : done) results.push_back(p.get_future());
    for (std::size_t i = next; i < end; ++i) {
      net::AsyncClient* c = viewers[i].get();
      const util::ChannelId ch = rig->channel_of[i];
      std::promise<core::DrmError>* p = &done[i - next];
      d.network().post(c->config().node, 0, [c, ch, p] {
        c->login([c, ch, p](core::DrmError err) {
          if (err != core::DrmError::kOk) {
            p->set_value(err);
            return;
          }
          c->switch_channel(ch, [p](core::DrmError err2) { p->set_value(err2); });
        });
      });
    }
    for (auto& f : results) rig->joined += f.get() == core::DrmError::kOk;
    std::vector<std::promise<void>> announced(end - next);
    std::vector<std::future<void>> announcements;
    for (auto& p : announced) announcements.push_back(p.get_future());
    for (std::size_t i = next; i < end; ++i) {
      net::AsyncClient* c = viewers[i].get();
      std::promise<void>* p = &announced[i - next];
      d.network().post(c->config().node, 0, [c, &d, p] {
        d.announce(*c);
        p->set_value();
      });
    }
    for (auto& f : announcements) f.get();
    next = end;
  }
  rig->joined_in_time = d.now() < first_rotation;

  for (int i = 0; i < 64; ++i) rig->payloads.push_back(rng.bytes(kPayloadBytes));
  return rig;
}

}  // namespace

Result run_live_broadcast(const Options& opt) {
  Result r;
  const std::unique_ptr<CastRig> rig = timed_setup([&] { return build_cast(opt); }, r);
  net::Deployment& d = *rig->d;
  const std::vector<std::unique_ptr<net::AsyncClient>>& viewers = rig->viewers;

  // Open loop: packet k of channel c is due at t_start + phase_c + k / rate.
  const SimTime interval = static_cast<SimTime>(1e6 / kPacketsPerSecond);
  const SimTime t_start = rig->last_rotation + 250 * util::kMillisecond;
  const SimTime ws = t_start + kWarmup;
  const SimTime we = ws + static_cast<SimTime>(opt.seconds * 1e6);
  const std::size_t per_channel = static_cast<std::size_t>((we - t_start) / interval);
  std::vector<std::vector<SimTime>> due(kCastChannels, std::vector<SimTime>(per_channel));
  std::vector<std::pair<SimTime, util::ChannelId>> schedule;
  for (util::ChannelId ch = 1; ch <= kCastChannels; ++ch) {
    const SimTime phase = interval * static_cast<SimTime>(ch - 1) / kCastChannels;
    for (std::size_t k = 0; k < per_channel; ++k) {
      due[ch - 1][k] = t_start + phase + static_cast<SimTime>(k) * interval;
      schedule.emplace_back(due[ch - 1][k], ch);
    }
  }
  std::sort(schedule.begin(), schedule.end());
  const std::uint64_t expected =
      static_cast<std::uint64_t>(per_channel) * kViewersPerChannel * kCastChannels;

  ArrivalProbe arrivals(viewers.front()->config().node, viewers.size(), per_channel);
  d.network().add_interceptor(&arrivals);
  std::unique_ptr<HopProbe> hops;
  if (opt.trace) {
    hops = std::make_unique<HopProbe>(host_loops());
    d.enable_tracing();
    for (auto& v : viewers) v->bind_observability(&d.registry(), &d.tracer());
    d.network().add_interceptor(hops.get());
  }

  std::vector<double> gen_lag_us(schedule.size());
  std::thread generator([&] {
    std::size_t n = 0;
    for (const auto& [when, ch] : schedule) {
      sleep_until(d, when);
      const util::BytesView payload = rig->payloads[n % rig->payloads.size()];
      d.network().post(net::Deployment::kChannelRootBase + ch, 0,
                       [&d, ch = ch, payload] { d.broadcast(ch, payload); });
      gen_lag_us[n++] = static_cast<double>(d.now() - when);
    }
  });
  sleep_until(d, ws);
  const WindowEdge w0 = snapshot(d);
  sleep_until(d, we);
  const WindowEdge w1 = snapshot(d);
  generator.join();
  const Clock::time_point drain_start = Clock::now();
  while (arrivals.arrivals() < expected && seconds_since(drain_start) < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  d.transport().shutdown();

  std::vector<std::pair<SimTime, double>> delivery_ms;
  std::uint64_t in_window = 0;
  for (std::size_t v = 0; v < viewers.size(); ++v) {
    const std::vector<SimTime>& sent_at = due[rig->channel_of[v] - 1];
    for (std::size_t k = 0; k < per_channel; ++k) {
      const SimTime at = arrivals.arrival(v, k);
      if (at < 0) continue;
      if (sent_at[k] >= ws && sent_at[k] < we) {
        delivery_ms.emplace_back(sent_at[k], static_cast<double>(at - sent_at[k]) / 1000.0);
      }
      if (at >= w0.at && at < w1.at) ++in_window;
    }
  }
  std::uint64_t undecryptable = 0;
  for (const auto& v : viewers) {
    r.attempted += per_channel;
    const std::uint64_t got = std::min<std::uint64_t>(v->content_decrypted(), per_channel);
    r.failed += per_channel - got;
    undecryptable += v->content_undecryptable();
  }
  r.failed += undecryptable;
  const double span_s = static_cast<double>(w1.at - w0.at) / 1e6;

  // The load is open-loop, so the work done by w1 is fixed; reading the
  // high-water there counts everything the timed load allocated.
  r.set("peak_rss_mb", w1.rss_mb, "MB");
  r.set("fail_ratio",
        static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
        "ratio");
  r.set("deliveries_per_s", static_cast<double>(in_window) / span_s, "1/s");
  r.set("cpu_us_per_op",
        (w1.cpu_s - w0.cpu_s) * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, in_window)),
        "us");
  r.set("pkt_delivery_ms_p50", windowed_quantile(delivery_ms, ws, kTailWindow, 0.5), "ms");
  r.set("pkt_delivery_ms_p99", windowed_quantile(delivery_ms, ws, kTailWindow, 0.99), "ms");
  r.set("delivery_samples", static_cast<double>(delivery_ms.size()), "count");
  r.set("bench.gen_lag_ms_p99", quantile(gen_lag_us, 0.99) / 1000.0, "ms");

  r.check("every viewer joined its channel during set-up", rig->joined == viewers.size());
  r.check("every JOIN finished before the first key rotation", rig->joined_in_time);
  r.check("every viewer decrypted every packet sent after its JOIN",
          r.failed == undecryptable);
  r.check("no viewer saw an undecryptable packet", undecryptable == 0);

  if (opt.trace) {
    std::uint64_t retransmits = 0;
    for (const auto& v : viewers) retransmits += v->retransmits();
    live_layer_metrics(d, w0, w1, static_cast<double>(in_window),
                       static_cast<double>(expected), retransmits, *hops, r);
    std::map<util::NodeId, net::AsyncClient*> by_node;
    for (const auto& v : viewers) by_node[v->config().node] = v.get();
    std::size_t depth_max = 0;
    double depth_sum = 0;
    for (const auto& v : viewers) {
      const std::size_t depth = depth_of(v->config().node, by_node);
      depth_max = std::max(depth_max, depth);
      depth_sum += static_cast<double>(depth);
    }
    exchange_split_metrics(hops->exchanges(), {}, r);  // no rounds while timed
    r.set("p2p.tree_depth_max", static_cast<double>(depth_max), "count");
    r.set("p2p.relay_hops_per_pkt",
          depth_sum / static_cast<double>(viewers.size()) - 1.0, "count");
    const obs::LatencyHistogram* margin =
        d.registry().find_histogram("keys.delivery_margin_us");
    r.set("p2p.key_margin_ms_p50", margin == nullptr ? 0.0 : margin->p50() / 1000.0,
          "ms");
  }
  return r;
}

}  // namespace perfbench
