#include "fault/fault_plan.h"

#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace p2pdrm::fault {

namespace {

constexpr std::string_view kPlan = "FaultPlan";

[[noreturn]] void bad(const std::string& what) { plan_error(kPlan, what); }

}  // namespace

void plan_error(std::string_view plan, const std::string& what) {
  throw std::invalid_argument(std::string(plan) + ": " + what);
}

double parse_plan_double(std::string_view plan, std::string_view s,
                         const std::string& what) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(std::string(s), &used);
  } catch (const std::out_of_range&) {
    plan_error(plan, "out-of-range " + what + ": '" + std::string(s) + "'");
  } catch (const std::invalid_argument&) {
    // reported below, like trailing junk
  }
  if (used == 0 || used != s.size()) {
    plan_error(plan, "malformed " + what + ": '" + std::string(s) + "'");
  }
  return v;
}

std::uint64_t parse_plan_uint(std::string_view plan, std::string_view s,
                              const std::string& what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    plan_error(plan, "malformed " + what + ": '" + std::string(s) + "'");
  }
  return v;
}

void PlanLine::want(std::size_t n) const {
  if (tok.size() != 2 + n) {
    fail("verb '" + std::string(verb) + "' takes " + std::to_string(n) +
         " argument(s)");
  }
}

void parse_plan_lines(std::string_view text, std::string_view plan,
                      const std::function<void(const PlanLine&)>& on_line) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    ++line_no;
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;

    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    PlanLine parsed;
    parsed.plan = plan;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      std::size_t j = i;
      while (j < line.size() && !std::isspace(static_cast<unsigned char>(line[j]))) ++j;
      if (j > i) parsed.tok.push_back(line.substr(i, j - i));
      i = j;
    }
    if (parsed.tok.empty()) continue;

    try {
      if (parsed.tok.size() < 2) parsed.fail("expected '<time> <verb> ...'");
      parsed.at = parse_duration(parsed.tok[0]);
      parsed.verb = parsed.tok[1];
      on_line(parsed);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(e.what()) + " (line " +
                                  std::to_string(line_no) + ")");
    }
  }
}

util::SimTime parse_duration(std::string_view s) {
  if (s.empty()) bad("empty duration");
  std::size_t digits = 0;
  while (digits < s.size() && (std::isdigit(static_cast<unsigned char>(s[digits])) ||
                               s[digits] == '.')) {
    ++digits;
  }
  if (digits == 0) bad("malformed duration: '" + std::string(s) + "'");
  const double value = parse_plan_double(kPlan, s.substr(0, digits), "duration");
  const std::string_view unit = s.substr(digits);
  if (unit.empty()) return static_cast<util::SimTime>(value);  // raw microseconds
  if (unit == "ms") return util::millis(value);
  if (unit == "s") return util::seconds(value);
  if (unit == "m") return static_cast<util::SimTime>(value * util::kMinute);
  if (unit == "h") return static_cast<util::SimTime>(value * util::kHour);
  bad("unknown duration unit: '" + std::string(unit) + "'");
}

std::string format_duration(util::SimTime t) {
  const auto whole = [t](util::SimTime unit) { return t != 0 && t % unit == 0; };
  std::ostringstream out;
  if (whole(util::kHour)) {
    out << t / util::kHour << "h";
  } else if (whole(util::kMinute)) {
    out << t / util::kMinute << "m";
  } else if (whole(util::kSecond)) {
    out << t / util::kSecond << "s";
  } else if (whole(util::kMillisecond)) {
    out << t / util::kMillisecond << "ms";
  } else {
    out << t;  // raw microseconds (also the zero case)
  }
  return out.str();
}

AddrBlock AddrBlock::parse(std::string_view cidr) {
  if (cidr == "*") return {};
  const std::size_t slash = cidr.find('/');
  if (slash == std::string_view::npos) {
    bad("address block needs a /bits suffix: '" + std::string(cidr) + "'");
  }
  AddrBlock block;
  block.addr = util::parse_netaddr(std::string(cidr.substr(0, slash))).ip;
  block.bits = static_cast<std::uint32_t>(
      parse_plan_uint(kPlan, cidr.substr(slash + 1), "prefix length"));
  if (block.bits > 32) bad("prefix length > 32");
  return block;
}

std::string AddrBlock::to_string() const {
  return util::to_string(util::NetAddr{addr}) + "/" + std::to_string(bits);
}

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kCrashUm: return "crash-um";
    case FaultKind::kRestartUm: return "restart-um";
    case FaultKind::kCrashCm: return "crash-cm";
    case FaultKind::kRestartCm: return "restart-cm";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kLossBurst: return "loss";
    case FaultKind::kLatencySpike: return "delay";
    case FaultKind::kChurnStorm: return "churn";
    case FaultKind::kClockSkew: return "skew";
    case FaultKind::kFlashCrowd: return "flash-crowd";
    case FaultKind::kWipeState: return "wipe-state";
    case FaultKind::kCrashUnsynced: return "crash-unsynced";
    case FaultKind::kReplicationLag: return "replication-lag";
  }
  return "?";
}

std::string_view to_string(FarmKind f) {
  return f == FarmKind::kUm ? "um" : "cm";
}

std::string FaultEvent::to_string() const {
  std::ostringstream out;
  out << format_duration(at) << " " << fault::to_string(kind);
  switch (kind) {
    case FaultKind::kCrashUm:
    case FaultKind::kRestartUm:
      out << " " << instance;
      break;
    case FaultKind::kCrashCm:
    case FaultKind::kRestartCm:
      out << " " << partition << " " << instance;
      break;
    case FaultKind::kPartition:
      out << " " << a.to_string() << " " << b.to_string() << " "
          << format_duration(duration);
      break;
    case FaultKind::kLossBurst:
      out << " " << a.to_string() << " " << rate << " " << format_duration(duration);
      break;
    case FaultKind::kLatencySpike:
      out << " " << a.to_string() << " " << format_duration(delay) << " "
          << format_duration(duration);
      break;
    case FaultKind::kChurnStorm:
      out << " " << channel << " " << departures << " " << arrivals;
      break;
    case FaultKind::kClockSkew:
      out << " " << node << " " << format_duration(delay);
      break;
    case FaultKind::kFlashCrowd:
      out << " " << channel << " " << arrivals << " " << format_duration(duration);
      break;
    case FaultKind::kWipeState:
    case FaultKind::kCrashUnsynced:
      out << " " << fault::to_string(farm);
      if (farm == FarmKind::kCm) out << " " << partition;
      out << " " << instance;
      break;
    case FaultKind::kReplicationLag:
      out << " " << format_duration(delay);
      break;
  }
  return out.str();
}

FaultPlan& FaultPlan::push(FaultEvent ev) {
  insert_by_time(events_, std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::crash_um(util::SimTime at, std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kCrashUm;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::restart_um(util::SimTime at, std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kRestartUm;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::crash_cm(util::SimTime at, std::uint32_t partition,
                               std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kCrashCm;
  ev.farm = FarmKind::kCm;
  ev.partition = partition;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::restart_cm(util::SimTime at, std::uint32_t partition,
                                 std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kRestartCm;
  ev.farm = FarmKind::kCm;
  ev.partition = partition;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::partition(util::SimTime at, util::SimTime duration, AddrBlock a,
                                AddrBlock b) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kPartition;
  ev.duration = duration;
  ev.a = a;
  ev.b = b;
  return push(ev);
}

FaultPlan& FaultPlan::loss_burst(util::SimTime at, util::SimTime duration,
                                 AddrBlock scope, double rate) {
  if (rate < 0.0 || rate > 1.0) bad("loss rate outside [0, 1]");
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kLossBurst;
  ev.duration = duration;
  ev.a = scope;
  ev.rate = rate;
  return push(ev);
}

FaultPlan& FaultPlan::latency_spike(util::SimTime at, util::SimTime duration,
                                    AddrBlock scope, util::SimTime extra) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kLatencySpike;
  ev.duration = duration;
  ev.a = scope;
  ev.delay = extra;
  return push(ev);
}

FaultPlan& FaultPlan::churn_storm(util::SimTime at, util::ChannelId channel,
                                  std::size_t departures, std::size_t arrivals) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kChurnStorm;
  ev.channel = channel;
  ev.departures = departures;
  ev.arrivals = arrivals;
  return push(ev);
}

FaultPlan& FaultPlan::clock_skew(util::SimTime at, util::NodeId node,
                                 util::SimTime skew) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kClockSkew;
  ev.node = node;
  ev.delay = skew;
  return push(ev);
}

FaultPlan& FaultPlan::flash_crowd(util::SimTime at, util::ChannelId channel,
                                  std::size_t arrivals, util::SimTime ramp) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kFlashCrowd;
  ev.channel = channel;
  ev.arrivals = arrivals;
  ev.duration = ramp;
  return push(ev);
}

FaultPlan& FaultPlan::wipe_state_um(util::SimTime at, std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kWipeState;
  ev.farm = FarmKind::kUm;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::wipe_state_cm(util::SimTime at, std::uint32_t partition,
                                    std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kWipeState;
  ev.farm = FarmKind::kCm;
  ev.partition = partition;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::crash_unsynced_um(util::SimTime at, std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kCrashUnsynced;
  ev.farm = FarmKind::kUm;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::crash_unsynced_cm(util::SimTime at, std::uint32_t partition,
                                        std::size_t instance) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kCrashUnsynced;
  ev.farm = FarmKind::kCm;
  ev.partition = partition;
  ev.instance = instance;
  return push(ev);
}

FaultPlan& FaultPlan::replication_lag(util::SimTime at, util::SimTime interval) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kReplicationLag;
  ev.delay = interval;
  return push(ev);
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  parse_plan_lines(text, kPlan, [&plan](const PlanLine& l) {
    const util::SimTime at = l.at;
    const std::string_view verb = l.verb;
    const std::vector<std::string_view>& tok = l.tok;
    if (verb == "crash-um") {
      l.want(1);
      plan.crash_um(at, l.uint(2, "instance"));
    } else if (verb == "restart-um") {
      l.want(1);
      plan.restart_um(at, l.uint(2, "instance"));
    } else if (verb == "crash-cm") {
      l.want(2);
      plan.crash_cm(at, static_cast<std::uint32_t>(l.uint(2, "partition")),
                    l.uint(3, "instance"));
    } else if (verb == "restart-cm") {
      l.want(2);
      plan.restart_cm(at, static_cast<std::uint32_t>(l.uint(2, "partition")),
                      l.uint(3, "instance"));
    } else if (verb == "partition") {
      l.want(3);
      plan.partition(at, parse_duration(tok[4]), AddrBlock::parse(tok[2]),
                     AddrBlock::parse(tok[3]));
    } else if (verb == "loss") {
      l.want(3);
      plan.loss_burst(at, parse_duration(tok[4]), AddrBlock::parse(tok[2]),
                      l.real(3, "loss rate"));
    } else if (verb == "delay") {
      l.want(3);
      plan.latency_spike(at, parse_duration(tok[4]), AddrBlock::parse(tok[2]),
                         parse_duration(tok[3]));
    } else if (verb == "churn") {
      l.want(3);
      plan.churn_storm(at, static_cast<util::ChannelId>(l.uint(2, "channel")),
                       l.uint(3, "departures"),
                       l.uint(4, "arrivals"));
    } else if (verb == "skew") {
      l.want(2);
      plan.clock_skew(at, static_cast<util::NodeId>(l.uint(2, "node")),
                      parse_duration(tok[3]));
    } else if (verb == "flash-crowd") {
      l.want(3);
      plan.flash_crowd(at,
                       static_cast<util::ChannelId>(l.uint(2, "channel")),
                       l.uint(3, "arrivals"), parse_duration(tok[4]));
    } else if (verb == "wipe-state" || verb == "crash-unsynced") {
      // Variable arity: 'um <instance>' or 'cm <partition> <instance>'.
      if (tok.size() < 3) bad("verb '" + std::string(verb) + "' needs a farm");
      const std::string_view farm = tok[2];
      const bool wipe = verb == "wipe-state";
      if (farm == "um") {
        l.want(2);
        const std::size_t inst = l.uint(3, "instance");
        wipe ? plan.wipe_state_um(at, inst) : plan.crash_unsynced_um(at, inst);
      } else if (farm == "cm") {
        l.want(3);
        const auto part = static_cast<std::uint32_t>(l.uint(3, "partition"));
        const std::size_t inst = l.uint(4, "instance");
        wipe ? plan.wipe_state_cm(at, part, inst)
             : plan.crash_unsynced_cm(at, part, inst);
      } else {
        bad("unknown farm '" + std::string(farm) + "' (want um|cm)");
      }
    } else if (verb == "replication-lag") {
      l.want(1);
      plan.replication_lag(at, parse_duration(tok[2]));
    } else {
      bad("unknown verb '" + std::string(verb) + "'");
    }
  });
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  for (const FaultEvent& ev : events_) out << ev.to_string() << "\n";
  return out.str();
}

}  // namespace p2pdrm::fault
