#include "core/policy.h"

#include <algorithm>

namespace p2pdrm::core {

std::string PolicyTerm::to_string() const {
  return attr_name + "=" + rule.to_string();
}

std::string Policy::to_string() const {
  std::string s = "Priority " + std::to_string(priority) + ": ";
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) s += " & ";
    s += terms[i].to_string();
  }
  s += (action == PolicyAction::kAccept) ? ", Return ACCEPT" : ", Return REJECT";
  return s;
}

namespace {

/// A term is grounded if the channel has an active attribute with the same
/// name and the *literal* same value as the term's rule. Literal (not
/// wildcard) matching is essential: a blackout policy's Region=ANY term must
/// be grounded only by the windowed Region=ANY attribute, never by the
/// channel's ordinary Region=<x> attributes.
bool term_grounded(const ChannelRecord& channel, const PolicyTerm& term,
                   util::SimTime now) {
  for (const Attribute& a : channel.attributes.items()) {
    if (a.name == term.attr_name && a.value == term.rule && a.active_at(now)) {
      return true;
    }
  }
  return false;
}

bool term_satisfied(const AttributeSet& user_attrs, const PolicyTerm& term,
                    util::SimTime now) {
  return user_attrs.matches(term.attr_name, term.rule, now);
}

}  // namespace

EvalResult evaluate_policies(const ChannelRecord& channel,
                             const AttributeSet& user_attrs, util::SimTime now) {
  // Stable sort by descending priority; ties resolve in listing order, so a
  // provider can rely on the order it configured.
  std::vector<const Policy*> ordered;
  ordered.reserve(channel.policies.size());
  for (const Policy& p : channel.policies) ordered.push_back(&p);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Policy* a, const Policy* b) { return a->priority > b->priority; });

  for (const Policy* policy : ordered) {
    bool applicable = true;
    for (const PolicyTerm& term : policy->terms) {
      if (!term_grounded(channel, term, now)) {
        applicable = false;
        break;
      }
    }
    if (!applicable) continue;

    bool fires = true;
    for (const PolicyTerm& term : policy->terms) {
      if (!term_satisfied(user_attrs, term, now)) {
        fires = false;
        break;
      }
    }
    if (!fires) continue;

    return EvalResult{
        policy->action == PolicyAction::kAccept ? AccessDecision::kAccept
                                                : AccessDecision::kReject,
        policy->priority, "decided by: " + policy->to_string()};
  }
  return EvalResult{AccessDecision::kReject, 0, "no policy fired (default reject)"};
}

bool channel_accessible(const ChannelRecord& channel, const AttributeSet& user_attrs,
                        util::SimTime now) {
  return evaluate_policies(channel, user_attrs, now).decision == AccessDecision::kAccept;
}

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

std::optional<AttrValue> parse_attr_value(std::string_view s) {
  if (s == "ANY") return AttrValue::any();
  if (s == "ALL") return AttrValue::all();
  if (s == "NONE") return AttrValue::none();
  if (s == "NULL") return AttrValue::null();
  if (s.empty()) return std::nullopt;
  return AttrValue::of(std::string(s));
}

}  // namespace

std::optional<Policy> parse_policy(std::string_view text) {
  // Grammar:  "Priority" <n> ":" [<term> ("&" <term>)*] "," "Return" <action>
  constexpr std::string_view kPriority = "Priority ";
  std::string_view rest = trim(text);
  if (!rest.starts_with(kPriority)) return std::nullopt;
  rest.remove_prefix(kPriority.size());

  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view priority_str = trim(rest.substr(0, colon));
  if (priority_str.empty()) return std::nullopt;
  std::uint64_t priority = 0;
  for (char c : priority_str) {
    if (c < '0' || c > '9') return std::nullopt;
    priority = priority * 10 + static_cast<std::uint64_t>(c - '0');
    if (priority > 0xffffffffull) return std::nullopt;
  }
  rest.remove_prefix(colon + 1);

  const std::size_t comma = rest.rfind(',');
  if (comma == std::string_view::npos) return std::nullopt;
  std::string_view terms_part = trim(rest.substr(0, comma));
  const std::string_view action_part = trim(rest.substr(comma + 1));

  Policy policy;
  policy.priority = static_cast<std::uint32_t>(priority);
  if (action_part == "Return ACCEPT") {
    policy.action = PolicyAction::kAccept;
  } else if (action_part == "Return REJECT") {
    policy.action = PolicyAction::kReject;
  } else {
    return std::nullopt;
  }

  while (!terms_part.empty()) {
    const std::size_t amp = terms_part.find('&');
    const std::string_view term_str =
        trim(amp == std::string_view::npos ? terms_part : terms_part.substr(0, amp));
    if (amp != std::string_view::npos) {
      terms_part = trim(terms_part.substr(amp + 1));
      if (terms_part.empty()) return std::nullopt;  // trailing '&'
    } else {
      terms_part = {};
    }
    if (term_str.empty()) return std::nullopt;

    const std::size_t eq = term_str.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    const auto value = parse_attr_value(trim(term_str.substr(eq + 1)));
    if (!value) return std::nullopt;
    policy.terms.push_back(
        {std::string(trim(term_str.substr(0, eq))), *value});
  }
  return policy;
}

}  // namespace p2pdrm::core
