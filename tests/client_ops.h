// Blocking client operations for the protocol tests: each drives one
// AsyncClient call to completion through Deployment::run_op and returns
// its result, or nullopt when it never completed.
#pragma once

#include <optional>

#include "net/deployment.h"

namespace p2pdrm::net {

inline constexpr util::SimTime kOpTimeout = 10 * util::kMinute;

inline std::optional<core::DrmError> login(Deployment& d, AsyncClient& c) {
  return d.run_op(c, [&c](auto done) { c.login(std::move(done)); }, kOpTimeout);
}

inline std::optional<core::DrmError> switch_to(Deployment& d, AsyncClient& c,
                                               util::ChannelId channel) {
  return d.run_op(
      c, [&c, channel](auto done) { c.switch_channel(channel, std::move(done)); },
      kOpTimeout);
}

inline std::optional<core::DrmError> renew(Deployment& d, AsyncClient& c) {
  return d.run_op(c, [&c](auto done) { c.renew_channel_ticket(std::move(done)); },
                  kOpTimeout);
}

}  // namespace p2pdrm::net
