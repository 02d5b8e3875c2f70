// A three-deep relay tree on one channel, for the data-plane tests:
//
//   root (capacity 1) -> A (capacity 3) -> B, C, D
//                                          B -> E
//
// A is a relay with three children and E sits three hops below the root.
// The tree is built the same way on either backend: each viewer logs in
// and switches through Deployment::run_op, and a viewer is announced as a
// parent candidate only once the level it serves is the one joining next.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/deployment.h"

namespace p2pdrm::net {

struct RelayTree {
  static constexpr util::ChannelId kChannel = 1;
  static constexpr util::NodeId kRoot = Deployment::kChannelRootBase + kChannel;

  /// In join order: A, B, C, D, E.
  std::vector<std::unique_ptr<AsyncClient>> viewers;

  AsyncClient& a() { return *viewers[0]; }
  AsyncClient& b() { return *viewers[1]; }
  AsyncClient& c() { return *viewers[2]; }
  AsyncClient& d() { return *viewers[3]; }
  AsyncClient& e() { return *viewers[4]; }
};

/// Deployment settings for the tree: the root takes a single child.
inline DeploymentConfig relay_tree_config(TransportKind kind) {
  DeploymentConfig cfg;
  cfg.seed = 77;
  cfg.transport = kind;
  cfg.transport_threads = 4;
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 3 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.root_peer_capacity = 1;
  return cfg;
}

/// Provision the channel and its viewers on `d` and join them into the
/// tree. Fails the calling test (and returns an incomplete tree) when a
/// viewer does not land where the shape above says.
inline RelayTree build_relay_tree(Deployment& d) {
  constexpr util::SimTime kTimeout = 2 * util::kMinute;
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(RelayTree::kChannel, "relay", region);
  d.start_channel_server(RelayTree::kChannel);

  RelayTree tree;
  crypto::SecureRandom keys(5);
  auto join = [&](std::size_t i) -> AsyncClient& {
    const std::string email = "v" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    AsyncClient::Config cc = d.make_client_config(email, "pw", region);
    cc.peer_capacity = 3;
    tree.viewers.push_back(std::make_unique<AsyncClient>(
        std::move(cc), d.network(), crypto::SecureRandom(keys.next_u64())));
    AsyncClient& c = *tree.viewers.back();
    c.bind_observability(&d.registry(), nullptr);
    EXPECT_EQ(d.run_op(c, login_and_switch(c, RelayTree::kChannel), kTimeout),
              core::DrmError::kOk)
        << email;
    return c;
  };
  auto announce = [&](AsyncClient& c) {
    d.run_op(
        c,
        [&d, &c](AsyncClient::Callback done) {
          d.announce(c);
          done(core::DrmError::kOk);
        },
        kTimeout);
  };

  announce(join(0));
  for (std::size_t i = 1; i <= 3; ++i) join(i);
  announce(tree.b());
  join(4);

  EXPECT_EQ(tree.a().parent(), RelayTree::kRoot);
  for (AsyncClient* child : {&tree.b(), &tree.c(), &tree.d()}) {
    EXPECT_EQ(child->parent(), tree.a().config().node);
  }
  EXPECT_EQ(tree.e().parent(), tree.b().config().node);
  return tree;
}

}  // namespace p2pdrm::net
