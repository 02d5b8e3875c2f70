// Ablation: content-key rotation interval (§IV-E).
//
// The paper rotates the channel's symmetric key every minute to bound the
// damage of a leaked key (forward secrecy). Faster rotation = smaller
// exposure window but more pair-wise re-encryption work at every overlay
// hop. This bench builds a REAL distribution tree (p2p::Peer objects, real
// AES/HMAC wraps per link) and measures, per rotation interval: key blobs
// sent, bytes of key traffic, and wall-clock CPU for relaying one hour's
// worth of rotations through the whole tree.
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "core/content.h"
#include "crypto/rsa.h"
#include "p2p/peer.h"
#include "sim_run.h"

using namespace p2pdrm;

namespace {

struct Tree {
  std::vector<std::unique_ptr<p2p::Peer>> peers;  // peers[0] is the root
  std::vector<std::vector<std::size_t>> children;
  std::size_t link_count = 0;
};

/// Build a fanout-f tree of n peers with real session keys on every link.
Tree build_tree(std::size_t n, std::size_t fanout, crypto::SecureRandom& rng) {
  const crypto::RsaKeyPair cm_keys = crypto::generate_rsa_keypair(rng, 512);
  // One client key pair shared across simulated peers: keygen cost is not
  // what this bench measures, per-link session keys are still unique.
  const crypto::RsaKeyPair client_keys = crypto::generate_rsa_keypair(rng, 512);

  Tree tree;
  tree.children.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p2p::PeerConfig cfg;
    cfg.node = static_cast<util::NodeId>(i);
    cfg.addr = util::NetAddr{0x0a000000u + static_cast<std::uint32_t>(i)};
    cfg.channel = 1;
    cfg.capacity = fanout;
    tree.peers.push_back(std::make_unique<p2p::Peer>(cfg, client_keys, cm_keys.pub,
                                                     rng.fork()));
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t parent = (i - 1) / fanout;
    core::ChannelTicket t;
    t.user_in = i;
    t.channel_id = 1;
    t.client_public_key = client_keys.pub;
    t.net_addr = tree.peers[i]->config().addr;
    t.expiry_time = 365 * util::kDay;
    const auto ticket = core::SignedChannelTicket::sign(t, cm_keys.priv);
    const core::JoinRequest req = tree.peers[i]->make_join_request(ticket);
    const core::JoinResponse resp = tree.peers[parent]->handle_join(
        req, tree.peers[i]->config().addr, tree.peers[i]->config().node, 0);
    if (resp.error != core::DrmError::kOk ||
        !tree.peers[i]->complete_join(static_cast<util::NodeId>(parent), resp)) {
      std::fprintf(stderr, "tree build failed at %zu\n", i);
      std::exit(1);
    }
    tree.children[parent].push_back(i);
    ++tree.link_count;
  }
  return tree;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SimRun run("ablation_key_rotation", argc, argv);
  bench::print_header("Ablation — content-key rotation interval (real crypto)");
  const double scale = bench::scale_factor();
  const std::size_t n = std::max<std::size_t>(50, static_cast<std::size_t>(1000 * scale));
  const std::size_t fanout = 4;
  crypto::SecureRandom rng(run.u64_flag("seed", 7));
  Tree tree = build_tree(n, fanout, rng);
  std::printf("# tree: %zu peers, fanout %zu, %zu encrypted links\n", n, fanout,
              tree.link_count);

  std::printf("\n%-12s %10s %12s %14s %12s %16s\n", "interval", "rotations/h",
              "blobs/h", "key bytes/h", "relay CPU", "exposure window");

  run.begin_artifact();
  obs::JsonWriter& j = run.json();
  j.begin_array();
  for (const util::SimTime interval :
       {10 * util::kSecond, 30 * util::kSecond, util::kMinute, 5 * util::kMinute,
        15 * util::kMinute}) {
    const std::size_t rotations =
        static_cast<std::size_t>(util::kHour / interval);
    std::size_t blobs = 0, bytes = 0;
    crypto::SecureRandom key_rng(interval);

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < rotations; ++k) {
      const core::ContentKey key = core::generate_content_key(
          key_rng, static_cast<std::uint8_t>(k), static_cast<util::SimTime>(k) * interval);
      // Relay through the whole tree: root announces, every peer re-wraps.
      std::deque<std::pair<std::size_t, p2p::Outgoing>> frontier;
      for (p2p::Outgoing& o : tree.peers[0]->announce_key(key)) {
        frontier.push_back({0, std::move(o)});
      }
      while (!frontier.empty()) {
        auto [from, out] = std::move(frontier.front());
        frontier.pop_front();
        ++blobs;
        bytes += out.payload.size();
        auto forwarded = tree.peers[out.to]->handle_key_blob(
            static_cast<util::NodeId>(from), out.payload);
        for (p2p::Outgoing& f : forwarded) frontier.push_back({out.to, std::move(f)});
      }
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    char label[32];
    std::snprintf(label, sizeof(label), "%llds",
                  static_cast<long long>(interval / util::kSecond));
    std::printf("%-12s %10zu %12zu %14zu %10lldms %15llds\n", label, rotations,
                blobs, bytes, static_cast<long long>(elapsed.count()),
                static_cast<long long>(interval / util::kSecond));

    j.begin_object();
    j.kv("interval_seconds", static_cast<std::int64_t>(interval / util::kSecond));
    j.kv("rotations_per_hour", static_cast<std::uint64_t>(rotations));
    j.kv("blobs_per_hour", static_cast<std::uint64_t>(blobs));
    j.kv("key_bytes_per_hour", static_cast<std::uint64_t>(bytes));
    j.kv("relay_cpu_ms", static_cast<std::int64_t>(elapsed.count()));
    j.end_object();
  }
  j.end_array();
  run.finish_artifact();

  std::printf("\ntradeoff: halving the interval doubles key traffic and per-hop "
              "crypto work\nwhile halving how long a leaked content key stays "
              "useful (the exposure window).\nthe paper's 1-minute default "
              "keeps relay cost trivial next to the media stream.\n");
  return 0;
}
