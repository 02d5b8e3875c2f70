// Channel policies and the access-authorization evaluation engine (§IV-A).
//
// A channel carries attributes and a prioritized list of policies. A policy
// is a conjunction of terms; each term names an attribute and a value rule.
// Evaluation (done by the Channel Manager when a client requests a Channel
// Ticket):
//   1. Consider policies in descending priority order.
//   2. A policy is *applicable* at time `now` only if every term is grounded
//      in a channel attribute that is active at `now` (this is how the
//      blackout window works: the "Region=ANY" attribute is only active
//      during the blackout, so the REJECT policy referencing it only applies
//      then).
//   3. An applicable policy *fires* if the user's attribute set satisfies
//      every term under values_match().
//   4. The first firing policy decides ACCEPT/REJECT. If none fires, access
//      is rejected (closed-world default).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attribute.h"
#include "util/ids.h"

namespace p2pdrm::core {

enum class PolicyAction : std::uint8_t { kReject = 0, kAccept = 1 };

constexpr util::EnumRange<PolicyAction> wire_range(PolicyAction) {
  return {PolicyAction::kReject, PolicyAction::kAccept};
}

/// One conjunct of a policy: "the user must present an attribute `name`
/// matching `rule`, and the channel must have an active attribute `name`
/// matching `rule` for the term to be grounded".
struct PolicyTerm {
  std::string attr_name;
  AttrValue rule;

  std::string to_string() const;
  template <class Io>
  void fields(Io& io) {
    io(attr_name, rule);
  }
  void encode(util::WireWriter& w) const { w(*this); }
  static PolicyTerm decode(util::WireReader& r) { return r.read<PolicyTerm>(); }

  friend bool operator==(const PolicyTerm&, const PolicyTerm&) = default;
};

struct Policy {
  std::uint32_t priority = 0;
  std::vector<PolicyTerm> terms;
  PolicyAction action = PolicyAction::kReject;

  std::string to_string() const;
  template <class Io>
  void fields(Io& io) {
    io(priority, util::counted(terms, 10000), action);
  }
  void encode(util::WireWriter& w) const { w(*this); }
  static Policy decode(util::WireReader& r) { return r.read<Policy>(); }

  friend bool operator==(const Policy&, const Policy&) = default;
};

/// A channel as known to the Channel Policy Manager and Channel Manager:
/// identity, its attributes, and its policies, plus the partition the
/// channel is assigned to (§V).
struct ChannelRecord {
  util::ChannelId id = 0;
  std::string name;
  AttributeSet attributes;
  std::vector<Policy> policies;
  std::uint32_t partition = 0;

  template <class Io>
  void fields(Io& io) {
    io(id, name, attributes, util::counted(policies, 10000), partition);
  }
  void encode(util::WireWriter& w) const { w(*this); }
  static ChannelRecord decode(util::WireReader& r) { return r.read<ChannelRecord>(); }

  friend bool operator==(const ChannelRecord&, const ChannelRecord&) = default;
};

enum class AccessDecision : std::uint8_t { kReject = 0, kAccept = 1 };

struct EvalResult {
  AccessDecision decision = AccessDecision::kReject;
  /// Priority of the policy that decided, or 0 if none fired.
  std::uint32_t decided_by_priority = 0;
  /// Human-readable trace of the decision (for logs and debugging).
  std::string reason;
};

/// Evaluate a channel's policies against a user attribute set at time `now`.
EvalResult evaluate_policies(const ChannelRecord& channel,
                             const AttributeSet& user_attrs, util::SimTime now);

/// Convenience used by clients to render their channel list: would this
/// user currently be accepted on this channel?
bool channel_accessible(const ChannelRecord& channel, const AttributeSet& user_attrs,
                        util::SimTime now);

/// Parse the paper's policy notation (the inverse of Policy::to_string):
///   "Priority 50: Region=100 & Subscription=101, Return ACCEPT"
///   "Priority 100: Region=ANY, Return REJECT"
/// Values ANY/ALL/NONE/NULL parse as the special attribute values; anything
/// else is a concrete string. Returns nullopt on malformed input.
std::optional<Policy> parse_policy(std::string_view text);

}  // namespace p2pdrm::core
