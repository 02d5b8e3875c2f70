// Fault plan: a deterministic schedule of typed faults to inject into a
// running Deployment. Built programmatically (fluent builder) or parsed
// from a simple line-based text format so chaos scenarios can live in
// files:
//
//   # time  verb        args...
//   10m     crash-um    1
//   12m     restart-um  1
//   15m     crash-cm    0 1            # partition instance
//   20m     partition   10.0.0.0/8 10.254.0.0/16 30s
//   25m     loss        0.0.0.0/0 0.9 20s
//   26m     delay       10.1.0.0/16 250ms 30s
//   30m     churn       1 40 25        # channel departures arrivals
//   35m     skew        2 90s          # node skew
//   40m     flash-crowd 1 120 30s      # channel arrivals ramp
//   45m     wipe-state  cm 0 1         # durable media gone too
//   50m     crash-unsynced um 1        # torn tail: half the staged bytes land
//   55m     replication-lag 5s         # stretch the farm gossip interval
//
// Times are durations since the simulation epoch: "500ms", "90s", "10m",
// "2h" (or a bare integer, meaning microseconds). Blank lines and #
// comments are ignored. The plan itself does nothing — fault::FaultEngine
// turns it into scheduled simulation events.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace p2pdrm::fault {

/// "10m" / "90s" / "500ms" / "2h" / "0" -> SimTime. Throws
/// std::invalid_argument on malformed input.
util::SimTime parse_duration(std::string_view s);
/// Inverse of parse_duration, using the largest exact unit ("600s" never;
/// "10m" yes). Byte-stable for report rendering.
std::string format_duration(util::SimTime t);

// --- The schedule text format, shared with adversary::AdversaryPlan ---
//
// `plan` names the format in error messages ("FaultPlan", "AdversaryPlan").

/// Throw std::invalid_argument("<plan>: <what>").
[[noreturn]] void plan_error(std::string_view plan, const std::string& what);
/// Whole-token numbers: malformed input or trailing junk is a plan_error.
double parse_plan_double(std::string_view plan, std::string_view s,
                         const std::string& what);
std::uint64_t parse_plan_uint(std::string_view plan, std::string_view s,
                              const std::string& what);

/// One schedule line, '#' comment stripped and split on whitespace:
/// tok[0] is the time, tok[1] the verb, the rest its arguments.
struct PlanLine {
  std::string_view plan;
  std::vector<std::string_view> tok;
  util::SimTime at = 0;
  std::string_view verb;

  [[noreturn]] void fail(const std::string& what) const { plan_error(plan, what); }
  /// Require exactly `n` arguments after the verb.
  void want(std::size_t n) const;
  std::uint64_t uint(std::size_t i, const std::string& what) const {
    return parse_plan_uint(plan, tok[i], what);
  }
  double real(std::size_t i, const std::string& what) const {
    return parse_plan_double(plan, tok[i], what);
  }
};

/// Hand every non-blank line of `text` to `on_line`, after checking it
/// reads '<time> <verb> ...'. A std::invalid_argument thrown on a line is
/// rethrown with " (line N)" appended.
void parse_plan_lines(std::string_view text, std::string_view plan,
                      const std::function<void(const PlanLine&)>& on_line);

/// Insert `ev` keeping `events` sorted by time; same-time events keep
/// insertion order (determinism hinges on this).
template <typename Event>
void insert_by_time(std::vector<Event>& events, Event ev) {
  const auto pos = std::upper_bound(
      events.begin(), events.end(), ev.at,
      [](util::SimTime at, const Event& e) { return at < e.at; });
  events.insert(pos, std::move(ev));
}

/// Address-prefix matcher ("10.1.0.0/16"; "0.0.0.0/0" or "*" match all).
struct AddrBlock {
  std::uint32_t addr = 0;
  std::uint32_t bits = 0;

  bool contains(util::NetAddr a) const {
    if (bits == 0) return true;
    const std::uint32_t mask = bits >= 32 ? 0xffffffffu : ~(0xffffffffu >> bits);
    return (a.ip & mask) == (addr & mask);
  }

  static AddrBlock parse(std::string_view cidr);
  std::string to_string() const;
  friend bool operator==(const AddrBlock&, const AddrBlock&) = default;
};

enum class FaultKind : std::uint8_t {
  kCrashUm,       // instance
  kRestartUm,     // instance
  kCrashCm,       // partition, instance
  kRestartCm,     // partition, instance
  kPartition,     // a <-/-> b for duration
  kLossBurst,     // scope a, rate, duration
  kLatencySpike,  // scope a, delay, duration
  kChurnStorm,    // channel, departures, arrivals
  kClockSkew,       // node, delay (the skew; 0 heals)
  kFlashCrowd,      // channel, arrivals, duration (the ramp)
  kWipeState,       // farm, [partition,] instance — crash + durable media loss
  kCrashUnsynced,   // farm, [partition,] instance — crash with a torn WAL tail
  kReplicationLag,  // delay (the new farm replication interval; 0 disables)
};

std::string_view to_string(FaultKind k);

/// Which farm a crash / restart / wipe-state / crash-unsynced targets.
enum class FarmKind : std::uint8_t { kUm, kCm };

std::string_view to_string(FarmKind f);

struct FaultEvent {
  util::SimTime at = 0;
  FaultKind kind = FaultKind::kCrashUm;
  FarmKind farm = FarmKind::kUm;    // target of every farm-instance verb
  std::size_t instance = 0;
  std::uint32_t partition = 0;
  AddrBlock a;                      // partition side A / loss / delay scope
  AddrBlock b;                      // partition side B
  double rate = 0.0;                // loss probability
  util::SimTime duration = 0;
  util::SimTime delay = 0;          // latency spike extra / clock skew
  util::NodeId node = util::kInvalidNode;
  util::ChannelId channel = 0;
  std::size_t departures = 0;
  std::size_t arrivals = 0;

  /// One schedule line, parseable back by FaultPlan::parse.
  std::string to_string() const;
};

class FaultPlan {
 public:
  FaultPlan& crash_um(util::SimTime at, std::size_t instance);
  FaultPlan& restart_um(util::SimTime at, std::size_t instance);
  FaultPlan& crash_cm(util::SimTime at, std::uint32_t partition, std::size_t instance);
  FaultPlan& restart_cm(util::SimTime at, std::uint32_t partition,
                        std::size_t instance);
  FaultPlan& partition(util::SimTime at, util::SimTime duration, AddrBlock a,
                       AddrBlock b);
  FaultPlan& loss_burst(util::SimTime at, util::SimTime duration, AddrBlock scope,
                        double rate);
  FaultPlan& latency_spike(util::SimTime at, util::SimTime duration, AddrBlock scope,
                           util::SimTime extra);
  FaultPlan& churn_storm(util::SimTime at, util::ChannelId channel,
                         std::size_t departures, std::size_t arrivals);
  FaultPlan& clock_skew(util::SimTime at, util::NodeId node, util::SimTime skew);
  /// A viewing stampede: `arrivals` brand-new viewers pile onto `channel`,
  /// spread uniformly over `ramp` (the overload scenario admission control
  /// exists for — nobody departs first).
  FaultPlan& flash_crowd(util::SimTime at, util::ChannelId channel,
                         std::size_t arrivals, util::SimTime ramp);
  /// Crash an instance AND destroy its durable media (journal + snapshot):
  /// on restart it has nothing local and must full-sync from siblings.
  FaultPlan& wipe_state_um(util::SimTime at, std::size_t instance);
  FaultPlan& wipe_state_cm(util::SimTime at, std::uint32_t partition,
                           std::size_t instance);
  /// Crash an instance mid-write: half the staged (unsynced) journal bytes
  /// land as a torn tail, the rest are lost. Replay must stop cleanly.
  FaultPlan& crash_unsynced_um(util::SimTime at, std::size_t instance);
  FaultPlan& crash_unsynced_cm(util::SimTime at, std::uint32_t partition,
                               std::size_t instance);
  /// Reset the farm replication interval (0 stops the ticker entirely,
  /// freezing async audit shipping until a later event restores it).
  FaultPlan& replication_lag(util::SimTime at, util::SimTime interval);

  /// Events sorted by time (stable: same-time events keep insertion order).
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Parse the text schedule format. Throws std::invalid_argument with a
  /// line number on malformed input.
  static FaultPlan parse(std::string_view text);
  /// Render as the text schedule format (parse round-trips).
  std::string to_string() const;

 private:
  FaultPlan& push(FaultEvent ev);
  std::vector<FaultEvent> events_;
};

}  // namespace p2pdrm::fault
