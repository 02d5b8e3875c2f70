// Blackout walkthrough (§IV-A's worked example, Fig. 2 channel B).
//
// A broadcaster re-airs an over-the-air channel on the P2P network but has
// no Internet rights for tonight's 20:00-21:00 game. The operator deploys
// the blackout with the Region=ANY attribute + high-priority REJECT policy;
// the utime machinery tells every client its channel list is stale; viewers
// are denied exactly during the window and service resumes after it.
//
//   ./blackout_policy
#include <cstdio>

#include "net/deployment.h"

using namespace p2pdrm;

namespace {

/// One operation driven to completion; false if it failed or never ended.
bool run(net::Deployment& d, net::AsyncClient& viewer,
         std::function<void(net::AsyncClient::Callback)> op, const char* what,
         const char* when) {
  const std::optional<core::DrmError> result =
      d.run_op(viewer, std::move(op), util::kMinute);
  if (when != nullptr) {
    std::printf("%-22s %s -> %s\n", when, what,
                result ? to_string(*result).data() : "no answer");
  }
  return result == core::DrmError::kOk;
}

bool login(net::Deployment& d, net::AsyncClient& viewer, const char* when = nullptr) {
  return run(d, viewer, [&viewer](auto done) { viewer.login(done); }, "login", when);
}

/// The viewer tunes in, signing in again first if its User Ticket lapsed.
void try_watch(net::Deployment& d, net::AsyncClient& viewer, const char* when) {
  if (viewer.user_ticket()->ticket.expired_at(d.now()) && !login(d, viewer, when)) {
    return;
  }
  run(d, viewer, [&viewer](auto done) { viewer.switch_channel(1, done); },
      "switch_channel", when);
}

}  // namespace

int main() {
  net::DeploymentConfig config;
  config.seed = 7;
  net::Deployment provider(config);
  provider.add_user("fan@example.com", "pw");
  const geo::RegionId region = provider.geo().region_at(0);
  provider.add_regional_channel(1, "sports-one", region);
  provider.start_channel_server(1);

  net::AsyncClient& fan = provider.add_client("fan@example.com", "pw", region);
  if (!login(provider, fan)) return 1;

  // 18:30 — normal viewing.
  provider.run_until(18 * util::kHour + 30 * util::kMinute);
  try_watch(provider, fan, "18:30 (before)");

  // The operator deploys the blackout for 20:00-21:00. Note the lead time:
  // it must go in at least one User Ticket lifetime before 20:00, or
  // already-issued tickets would outlive the policy change (§IV-C).
  const util::SimTime start = 20 * util::kHour;
  const util::SimTime end = 21 * util::kHour;
  provider.policy_manager().blackout(1, start, end, provider.now());
  std::printf("18:30 operator deploys blackout for 20:00-21:00\n");
  const core::ChannelRecord* record = provider.policy_manager().find_channel(1);
  for (const core::Policy& p : record->policies) {
    std::printf("  policy: %s\n", p.to_string().c_str());
  }

  // The client re-logins (ticket renewal); the new User Ticket carries a
  // fresher utime on the Region attribute, prompting a channel-list refetch.
  provider.run_until(19 * util::kHour);
  if (!login(provider, fan)) return 1;
  std::printf("19:00 client refreshed channel list via utime comparison\n");

  provider.run_until(19 * util::kHour + 55 * util::kMinute);
  try_watch(provider, fan, "19:55 (pre-window)");

  provider.run_until(20 * util::kHour + 10 * util::kMinute);
  try_watch(provider, fan, "20:10 (blacked out)");

  provider.run_until(20 * util::kHour + 59 * util::kMinute);
  try_watch(provider, fan, "20:59 (blacked out)");

  // After the window (the User Ticket expired meanwhile; renew first).
  provider.run_until(21 * util::kHour + 5 * util::kMinute);
  try_watch(provider, fan, "21:05 (after)");

  std::printf("\nnote: tickets issued before 20:00 remain valid into the "
              "window for up to one\nChannel Ticket lifetime — which is why "
              "the paper requires policies to be deployed\nat least one User "
              "Ticket lifetime ahead of the blackout.\n");
  return 0;
}
