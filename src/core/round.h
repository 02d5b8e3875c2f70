// The five protocol rounds, named as in the paper's evaluation (Figs. 5
// and 6), and the per-round latency sample a client's feedback log keeps.
// One vocabulary for the networked client, the macro-sim and every report:
// to_string() is what registry metric names and digests are built from.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/time.h"

namespace p2pdrm::core {

// Declared in core/messages.h; only named here.
enum class DrmError : std::uint8_t;

enum class Round : std::uint8_t {
  kLogin1 = 0,
  kLogin2 = 1,
  kSwitch1 = 2,
  kSwitch2 = 3,
  kJoin = 4,
};
constexpr std::size_t kNumRounds = 5;
/// Every round in order, for loops that report per round.
constexpr std::array<Round, kNumRounds> kAllRounds = {
    Round::kLogin1, Round::kLogin2, Round::kSwitch1, Round::kSwitch2, Round::kJoin};
/// "LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN".
std::string_view to_string(Round r);

/// One timed protocol round in a client's feedback log.
struct LatencySample {
  Round round;
  util::SimTime started = 0;
  util::SimTime latency = 0;
  bool success = false;
};

/// True for failures no amount of retrying, failover, or re-login can fix
/// (bad credentials, access denied, ...). Infrastructure errors — timeouts,
/// capacity, wrong-partition — are recoverable and return false.
bool is_permanent_failure(DrmError err);

}  // namespace p2pdrm::core
