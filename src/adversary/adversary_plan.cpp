#include "adversary/adversary_plan.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace p2pdrm::adversary {

namespace {

constexpr std::string_view kPlan = "AdversaryPlan";

[[noreturn]] void bad(const std::string& what) { fault::plan_error(kPlan, what); }

/// Byte-stable rendering of the fuzz rate (ostream double formatting is
/// locale/width dependent; the plan must round-trip byte-identically).
std::string format_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

}  // namespace

std::string_view to_string(AttackKind k) {
  switch (k) {
    case AttackKind::kReplayProbe: return "replay-probe";
    case AttackKind::kFuzz: return "fuzz";
    case AttackKind::kRoguePeer: return "rogue-peer";
    case AttackKind::kSybilFlood: return "sybil";
    case AttackKind::kCredShare: return "cred-share";
  }
  return "?";
}

std::string_view to_string(RogueMode m) {
  return m == RogueMode::kGarbageKeys ? "garbage" : "withhold";
}

std::string AdversaryEvent::to_string() const {
  std::ostringstream out;
  out << fault::format_duration(at) << " " << adversary::to_string(kind);
  switch (kind) {
    case AttackKind::kReplayProbe:
      out << " " << email << " " << password << " " << channel;
      break;
    case AttackKind::kFuzz:
      out << " " << fault::format_duration(duration) << " " << format_rate(rate)
          << " " << scope.to_string();
      break;
    case AttackKind::kRoguePeer:
      out << " " << channel << " " << count << " " << adversary::to_string(mode);
      break;
    case AttackKind::kSybilFlood:
      out << " " << channel << " " << count << " " << scope.to_string() << " "
          << sources;
      break;
    case AttackKind::kCredShare:
      out << " " << email << " " << password << " " << channel << " " << count
          << " " << fault::format_duration(duration);
      break;
  }
  return out.str();
}

AdversaryPlan& AdversaryPlan::push(AdversaryEvent ev) {
  fault::insert_by_time(events_, std::move(ev));
  return *this;
}

AdversaryPlan& AdversaryPlan::replay_probe(util::SimTime at, std::string email,
                                           std::string password,
                                           util::ChannelId channel) {
  AdversaryEvent ev;
  ev.at = at;
  ev.kind = AttackKind::kReplayProbe;
  ev.email = std::move(email);
  ev.password = std::move(password);
  ev.channel = channel;
  return push(std::move(ev));
}

AdversaryPlan& AdversaryPlan::fuzz(util::SimTime at, util::SimTime duration,
                                   fault::AddrBlock scope, double rate) {
  if (rate < 0.0 || rate > 1.0) bad("fuzz rate outside [0, 1]");
  AdversaryEvent ev;
  ev.at = at;
  ev.kind = AttackKind::kFuzz;
  ev.duration = duration;
  ev.scope = scope;
  ev.rate = rate;
  return push(std::move(ev));
}

AdversaryPlan& AdversaryPlan::rogue_peer(util::SimTime at, util::ChannelId channel,
                                         std::size_t count, RogueMode mode) {
  AdversaryEvent ev;
  ev.at = at;
  ev.kind = AttackKind::kRoguePeer;
  ev.channel = channel;
  ev.count = count;
  ev.mode = mode;
  return push(std::move(ev));
}

AdversaryPlan& AdversaryPlan::sybil_flood(util::SimTime at, util::ChannelId channel,
                                          std::size_t count, fault::AddrBlock block,
                                          std::size_t sources) {
  if (sources == 0) bad("sybil flood needs at least one source address");
  AdversaryEvent ev;
  ev.at = at;
  ev.kind = AttackKind::kSybilFlood;
  ev.channel = channel;
  ev.count = count;
  ev.scope = block;
  ev.sources = sources;
  return push(std::move(ev));
}

AdversaryPlan& AdversaryPlan::cred_share(util::SimTime at, std::string email,
                                         std::string password,
                                         util::ChannelId channel, std::size_t count,
                                         util::SimTime renew_after) {
  if (count == 0) bad("cred-share ring needs at least one member");
  AdversaryEvent ev;
  ev.at = at;
  ev.kind = AttackKind::kCredShare;
  ev.email = std::move(email);
  ev.password = std::move(password);
  ev.channel = channel;
  ev.count = count;
  ev.duration = renew_after;
  return push(std::move(ev));
}

AdversaryPlan AdversaryPlan::parse(std::string_view text) {
  AdversaryPlan plan;
  fault::parse_plan_lines(text, kPlan, [&plan](const fault::PlanLine& l) {
    const util::SimTime at = l.at;
    const std::string_view verb = l.verb;
    const std::vector<std::string_view>& tok = l.tok;
    if (verb == "replay-probe") {
      l.want(3);
      plan.replay_probe(at, std::string(tok[2]), std::string(tok[3]),
                        static_cast<util::ChannelId>(l.uint(4, "channel")));
    } else if (verb == "fuzz") {
      l.want(3);
      plan.fuzz(at, fault::parse_duration(tok[2]),
                fault::AddrBlock::parse(tok[4]), l.real(3, "fuzz rate"));
    } else if (verb == "rogue-peer") {
      l.want(3);
      const std::string_view mode = tok[4];
      if (mode != "garbage" && mode != "withhold") {
        bad("unknown rogue mode '" + std::string(mode) + "' (want garbage|withhold)");
      }
      plan.rogue_peer(at, static_cast<util::ChannelId>(l.uint(2, "channel")),
                      l.uint(3, "count"),
                      mode == "garbage" ? RogueMode::kGarbageKeys
                                        : RogueMode::kWithholdKeys);
    } else if (verb == "sybil") {
      l.want(4);
      plan.sybil_flood(at,
                       static_cast<util::ChannelId>(l.uint(2, "channel")),
                       l.uint(3, "count"), fault::AddrBlock::parse(tok[4]),
                       l.uint(5, "sources"));
    } else if (verb == "cred-share") {
      l.want(5);
      plan.cred_share(at, std::string(tok[2]), std::string(tok[3]),
                      static_cast<util::ChannelId>(l.uint(4, "channel")),
                      l.uint(5, "count"), fault::parse_duration(tok[6]));
    } else {
      bad("unknown verb '" + std::string(verb) + "'");
    }
  });
  return plan;
}

std::string AdversaryPlan::to_string() const {
  std::string out;
  for (const AdversaryEvent& ev : events_) {
    out += ev.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace p2pdrm::adversary
