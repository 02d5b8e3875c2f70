// Ablation: content-key delivery — announce lead, packet loss, and the
// multi-parent redundancy of peer-division multiplexing (§IV-E).
//
// "New instances of the evolving content key are sent some amount of time
// in advance of their use" and "the underlying P2P protocol ensures
// reliable distribution of content key ... a peer may receive multiple
// copies of the same content key from its parents" (duplicates discarded by
// serial). Key blobs here are fire-and-forget datagrams, so with a single
// parent a lost blob strands the whole subtree; a second parent per peer
// delivers a redundant copy along an independent path. This bench measures
// the fraction of peers holding the key by its activation instant across
// loss rates, with 1 vs 2 parents per peer — real crypto, real network.
#include <cstdio>

#include "net/network.h"
#include "net/service_nodes.h"
#include "p2p/peer.h"
#include "sim/simulation.h"
#include "sim_run.h"

using namespace p2pdrm;

namespace {

struct Tree {
  std::vector<std::unique_ptr<net::PeerNode>> nodes;  // nodes[0] = root
};

/// Full fanout-ary tree; with `parents_per_peer` == 2, every non-root peer
/// also joins a second, independent upstream peer.
Tree build_tree(net::Network& network, std::size_t n, std::size_t fanout,
                int parents_per_peer, crypto::SecureRandom& rng) {
  const crypto::RsaKeyPair cm_keys = crypto::generate_rsa_keypair(rng, 512);
  const crypto::RsaKeyPair client_keys = crypto::generate_rsa_keypair(rng, 512);
  Tree tree;
  for (std::size_t i = 0; i < n; ++i) {
    p2p::PeerConfig cfg;
    cfg.node = static_cast<util::NodeId>(i);
    cfg.addr = util::NetAddr{0x0a000000u + static_cast<std::uint32_t>(i)};
    cfg.channel = 1;
    cfg.capacity = 64;  // ample headroom: secondary parents skew to low ranks
    tree.nodes.push_back(std::make_unique<net::PeerNode>(
        std::make_unique<p2p::Peer>(cfg, client_keys, cm_keys.pub, rng.fork()),
        network));
    network.attach(cfg.node, cfg.addr, tree.nodes.back().get());
  }

  const auto join = [&](std::size_t child, std::size_t parent) {
    core::ChannelTicket t;
    t.user_in = child;
    t.channel_id = 1;
    t.client_public_key = client_keys.pub;
    t.net_addr = tree.nodes[child]->peer().config().addr;
    t.expiry_time = 365 * util::kDay;
    const auto ticket = core::SignedChannelTicket::sign(t, cm_keys.priv);
    const core::JoinRequest req = tree.nodes[child]->peer().make_join_request(ticket);
    const core::JoinResponse resp = tree.nodes[parent]->peer().handle_join(
        req, t.net_addr, static_cast<util::NodeId>(child), 0);
    if (resp.error != core::DrmError::kOk ||
        !tree.nodes[child]->peer().complete_join(static_cast<util::NodeId>(parent),
                                                 resp)) {
      std::fprintf(stderr, "tree build failed\n");
      std::exit(1);
    }
  };

  for (std::size_t i = 1; i < n; ++i) {
    join(i, (i - 1) / fanout);
    if (parents_per_peer >= 2 && i >= 2) {
      // Second parent: a deterministic pseudo-random upstream peer.
      const std::size_t second = rng.uniform(i - 1);
      if (second != (i - 1) / fanout) join(i, second);
    }
  }
  return tree;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("ablation_key_lead_time", argc, argv);
  std::printf("\n=== Ablation — key delivery under loss: lead time and "
              "multi-parent redundancy ===\n");
  std::printf("(341-peer 4-ary tree, per-hop RTT median 80ms, lead 3s)\n\n");
  std::printf("%-8s %-10s %12s %14s\n", "loss", "parents", "on-time", "stranded");

  const std::size_t n = 341;
  const util::SimTime lead = 3 * util::kSecond;

  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  j.begin_array();
  for (const double loss : {0.0, 0.02, 0.05, 0.15}) {
    for (const int parents : {1, 2}) {
      sim::Simulation sim;
      net::LinkConfig link;
      link.latency.floor = 20 * util::kMillisecond;
      link.latency.median = 80 * util::kMillisecond;
      link.latency.sigma = 0.6;
      link.loss = loss / 2;  // applied at both endpoints -> ~`loss` per hop
      crypto::SecureRandom rng(static_cast<std::uint64_t>(loss * 1000) + parents);
      net::Network network(sim, link, rng.fork());
      Tree tree = build_tree(network, n, 4, parents, rng);

      crypto::SecureRandom key_rng(9);
      const core::ContentKey key = core::generate_content_key(key_rng, 7, lead);
      tree.nodes[0]->announce_key(key);
      sim.run();

      std::size_t have = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (tree.nodes[i]->peer().knows_serial(7)) ++have;
      }
      std::printf("%6.0f%% %-10d %11.1f%% %10zu peers\n", loss * 100, parents,
                  100.0 * static_cast<double>(have) / static_cast<double>(n),
                  n - have);
      j.begin_object();
      j.kv("loss", loss);
      j.kv("parents", parents);
      j.kv("on_time_fraction",
           static_cast<double>(have) / static_cast<double>(n));
      j.kv("stranded_peers", static_cast<std::uint64_t>(n - have));
      j.end_object();
    }
  }
  j.end_array();
  run.finish_artifact();

  std::printf("\nexpected shape: with one parent, a single lost blob strands an "
              "entire subtree\n(loss amplifies with depth); with two parents the "
              "duplicate-discard mechanism\nturns redundancy into reliability, "
              "matching the paper's multi-parent design.\n");
  return 0;
}
