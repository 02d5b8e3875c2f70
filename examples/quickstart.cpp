// Quickstart: stand up a complete provider (Account Manager, Redirection
// Manager, User Manager, Channel Policy Manager, Channel Manager, tracker,
// Channel Server), register a user, log in, get a Channel Ticket, join the
// P2P overlay, and decrypt live content — the full Fig. 1 flow in one file.
//
//   ./quickstart
#include <cstdio>

#include "net/deployment.h"

using namespace p2pdrm;

int main() {
  // 1. Deploy the provider. Every manager is a node on a simulated network
  //    (virtual time, deterministic per seed); every call below crosses
  //    the exact protocol byte formats a real deployment would use.
  net::DeploymentConfig config;
  config.seed = 2026;
  config.geo_plan.num_regions = 2;
  net::Deployment provider(config);
  std::printf("provider up: 1 User Manager domain, %zu Channel Manager "
              "partition(s), %d regions\n",
              provider.partition_count(), provider.geo().num_regions());

  // 2. Register an account out-of-band (the provider's web site).
  provider.add_user("viewer@example.com", "correct horse battery staple");
  const geo::RegionId region = provider.geo().region_at(0);

  // 3. Offer a free-to-view channel in the first region and start its
  //    Channel Server (content encrypted under a rotating AES-128 key,
  //    §IV-E).
  provider.add_regional_channel(/*id=*/1, "evening-news", region);
  provider.start_channel_server(1);
  std::printf("channel 1 live, content key rotating every minute\n");

  // 4. Client startup: login (LOGIN1/LOGIN2 with nonce challenge, password
  //    proof, and binary attestation) yields a signed User Ticket that also
  //    certifies the client's public key (§IV-B). run_op drives one client
  //    operation to completion.
  net::AsyncClient& viewer =
      provider.add_client("viewer@example.com", "correct horse battery staple", region);
  const auto login = [&viewer](net::AsyncClient::Callback done) { viewer.login(done); };
  if (provider.run_op(viewer, login, util::kMinute) != core::DrmError::kOk) {
    std::printf("login failed\n");
    return 1;
  }
  const core::UserTicket& ut = viewer.user_ticket()->ticket;
  std::printf("logged in: UserIN=%llu, ticket valid %s -> %s, %zu attributes\n",
              static_cast<unsigned long long>(ut.user_in),
              util::format_time(ut.start_time).c_str(),
              util::format_time(ut.expiry_time).c_str(), ut.attributes.size());
  for (const core::Attribute& a : ut.attributes.items()) {
    std::printf("  attribute %s\n", a.to_string().c_str());
  }

  // 5. Watch: SWITCH1/SWITCH2 evaluate the channel's policies against the
  //    ticket's attributes and return a Channel Ticket + peer list; JOIN
  //    presents the Channel Ticket to a peer, which delegates authorization
  //    to the ticket signature and hands over the session + content keys.
  const auto watch = [&viewer](net::AsyncClient::Callback done) {
    viewer.switch_channel(1, done);
  };
  if (provider.run_op(viewer, watch, util::kMinute) != core::DrmError::kOk) {
    std::printf("switch failed\n");
    return 1;
  }
  std::printf("joined channel 1 via peer %u\n", *viewer.parent());

  // 6. Live content flows through the tree encrypted; the viewer decrypts.
  provider.broadcast(1, util::bytes_of("frame #1: headlines"));
  provider.run_for(util::kSecond);
  std::printf("decrypted %llu frame(s)\n",
              static_cast<unsigned long long>(viewer.content_decrypted()));

  // 7. A minute later the content key has rotated (forward secrecy); the
  //    new key was pushed down the tree pair-wise and playback continues.
  provider.run_for(90 * util::kSecond);
  provider.broadcast(1, util::bytes_of("frame #2: weather"));
  provider.run_for(util::kSecond);
  std::printf("after key rotation (%zu keys held): decrypted %llu frame(s), "
              "%llu undecryptable\n",
              viewer.peer_node()->peer().known_key_count(),
              static_cast<unsigned long long>(viewer.content_decrypted()),
              static_cast<unsigned long long>(viewer.content_undecryptable()));
  if (viewer.content_decrypted() != 2) {
    std::printf("content did not reach the viewer\n");
    return 1;
  }

  // 8. The client's feedback log recorded every protocol round — the same
  //    instrument behind the paper's Figs. 5 and 6.
  for (const core::LatencySample& s : viewer.feedback_log()) {
    std::printf("feedback: %-7s %6.1f ms %s\n", to_string(s.round).data(),
                util::to_seconds(s.latency) * 1000.0, s.success ? "ok" : "failed");
  }
  std::printf("quickstart complete\n");
  return 0;
}
