// Flash crowd at a live-event start (§I's motivating scenario).
//
// "Live events' having well-defined start and end times leads to highly
// correlated service request arrivals" — the case where P2P distribution
// is the advantage rather than the problem. This example floods a channel
// with joiners in a burst: the distribution tree fans out peer-to-peer
// (every accepted viewer becomes a parent candidate), the managers only
// ever do cheap stateless ticket work, and every viewer ends up decrypting
// the stream.
//
// The managers sit behind bounded worker queues, so the burst is admitted
// or shed with BUSY. The same code runs on either backend:
//
//   ./flash_crowd [viewers]                    (default 120, virtual clock)
//   ./flash_crowd --transport=thread [viewers] (default 64, real event loops)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/deployment.h"
#include "obs/flight_recorder.h"

using namespace p2pdrm;

namespace {

constexpr util::ChannelId kChannel = 1;
/// Every fan arrives within this window of the kick-off.
constexpr util::SimTime kBurst = 100 * util::kMillisecond;

/// The stampede: `viewers` brand-new sessions arrive within kBurst
/// against an overload-protected farm, so the burst is either absorbed or
/// shed with BUSY (never silently) and BUSY-deferred resends land the
/// stragglers. Every accepted viewer becomes a parent candidate, so the
/// crowd feeds itself peer-to-peer. `kind` picks the backend and nothing
/// else.
int run(net::TransportKind kind, std::size_t viewers) {
  const bool live = kind == net::TransportKind::kThread;
  std::printf("flash crowd (%s transport): %zu viewers stampeding\n",
              live ? "threaded" : "simulated", viewers);

  // Crash post-mortem opt-in (P2PDRM_FLIGHT_OUT): a clean stampede writes
  // no dump; a crash leaves the per-thread event rings behind.
  if (obs::FlightRecorder::global().arm_from_env()) {
    std::printf("flight recorder armed -> %s\n",
                obs::FlightRecorder::global().dump_path());
  }

  net::DeploymentConfig cfg;
  cfg.seed = 23;
  cfg.transport = kind;
  cfg.transport_threads = 4;
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 3 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;
  cfg.request_timeout = 500 * util::kMillisecond;
  cfg.cm.peer_list_size = 12;
  // Finite manager capacity makes the burst mean something: one worker,
  // 10 ms per heavy round, shedding past a shallow queue high-water mark.
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 10 * util::kMillisecond;
  cfg.overload.workers = 1;
  cfg.overload.queue_capacity = 64;
  cfg.overload.high_water = 4;
  cfg.overload.busy_retry_after = 100 * util::kMillisecond;
  net::Deployment d(cfg);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "the-big-game", region);
  d.start_channel_server(kChannel);

  // Accounts and clients exist before the event (control plane); the
  // stampede is purely protocol traffic.
  std::vector<net::AsyncClient*> crowd;
  crowd.reserve(viewers);
  for (std::size_t i = 0; i < viewers; ++i) {
    const std::string email = "fan" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    crowd.push_back(&d.add_client(email, "pw", region));
  }

  // Kick-off: the whole stampede is one op for run_op. Each fan's login +
  // switch runs on that fan's own loop; the last one to finish completes
  // the op.
  std::atomic<std::size_t> joined{0}, denied{0};
  const auto stampede = [&](net::AsyncClient::Callback done) {
    auto pending = std::make_shared<std::atomic<std::size_t>>(viewers);
    const auto finish = [&joined, &denied, pending, done](core::DrmError err) {
      (err == core::DrmError::kOk ? joined : denied).fetch_add(1);
      if (pending->fetch_sub(1) == 1) done(core::DrmError::kOk);
    };
    for (std::size_t i = 0; i < viewers; ++i) {
      net::AsyncClient* c = crowd[i];
      const util::SimTime arrival = static_cast<util::SimTime>(i) * kBurst /
                                    static_cast<util::SimTime>(viewers);
      const auto join = net::login_and_switch(*c, kChannel, [c, &d] { d.announce(*c); });
      d.network().post(c->config().node, arrival, [join, finish] { join(finish); });
    }
  };
  if (!d.run_op(*crowd.front(), stampede, 5 * util::kMinute)) {
    d.transport().shutdown();  // stragglers must not outlive the counters
    std::fprintf(stderr, "FAIL: the stampede never completed\n");
    return 1;
  }

  // One content packet, produced on the root's own loop (the channel
  // server's rotation state lives there) and fanned out through the tree.
  d.network().post(net::Deployment::kChannelRootBase + kChannel, 0,
                   [&d] { d.broadcast(kChannel, util::bytes_of("KICKOFF!")); });
  d.run_for(500 * util::kMillisecond);  // let the packet cross the tree
  d.transport().shutdown();             // quiesce before reading client state

  std::printf("flash crowd: %zu joined, %zu failed out of %zu\n", joined.load(),
              denied.load(), viewers);
  std::printf("tracker now lists %zu peers on the channel (utilization %.2f)\n",
              d.tracker().peer_count(kChannel), d.tracker().utilization(kChannel));

  std::uint64_t busy_received = 0, busy_resends = 0;
  std::size_t reached = 0;
  std::map<util::NodeId, const net::AsyncClient*> by_node;
  for (const auto& c : d.clients()) {
    busy_received += c->busy_received();
    busy_resends += c->busy_deferred_resends();
    if (c->content_decrypted() > 0) ++reached;
    by_node[c->config().node] = c.get();
  }
  const obs::Counter* busy_sent = d.registry().find_counter("server.busy_sent");
  std::printf("overload: server sent %llu BUSY; clients absorbed %llu "
              "(%llu deferred resends)\n",
              static_cast<unsigned long long>(
                  busy_sent != nullptr ? busy_sent->value() : 0),
              static_cast<unsigned long long>(busy_received),
              static_cast<unsigned long long>(busy_resends));
  std::printf("content reached %zu/%zu viewers through the overlay\n", reached,
              joined.load());

  // Depth distribution of the resulting tree: hops from the Channel Server,
  // walking up recorded parents until a non-client (the root) is reached.
  std::map<std::size_t, std::size_t> depth_histogram;
  for (const auto& [node, fan] : by_node) {
    if (!fan->parent()) continue;
    std::size_t depth = 1;
    auto up = by_node.find(*fan->parent());
    while (up != by_node.end() && up->second->parent() && depth <= viewers) {
      ++depth;
      up = by_node.find(*up->second->parent());
    }
    ++depth_histogram[depth];
  }
  std::printf("\ntree depth histogram (hops from the Channel Server):\n");
  for (const auto& [depth, count] : depth_histogram) {
    std::printf("  depth %zu: %zu viewers\n", depth, count);
  }
  std::printf("\nkeys and content flowed peer-to-peer; the managers only "
              "issued %zu tickets'\nworth of stateless signing work.\n",
              joined.load() * 2);

  if (joined.load() == 0 || reached == 0) {
    std::fprintf(stderr, "FAIL: the stampede never landed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string transport = "sim";
  std::size_t viewers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--transport=", 0) == 0) {
      transport = arg.substr(std::string("--transport=").size());
    } else {
      viewers = std::strtoul(arg.c_str(), nullptr, 10);
    }
  }
  if (transport != "sim" && transport != "thread") {
    std::fprintf(stderr, "flash_crowd: unknown --transport=%s (want sim|thread)\n",
                 transport.c_str());
    return 1;
  }
  const bool live = transport == "thread";
  return run(live ? net::TransportKind::kThread : net::TransportKind::kSim,
             viewers != 0 ? viewers : (live ? 64 : 120));
}
