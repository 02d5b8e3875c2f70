#include "core/attribute.h"

#include <stdexcept>

namespace p2pdrm::core {

AttrValue AttrValue::of(std::string value) {
  AttrValue v(Kind::kValue);
  v.value_ = std::move(value);
  return v;
}

AttrValue AttrValue::of_number(std::uint64_t value) {
  return of(std::to_string(value));
}

const std::string& AttrValue::value() const {
  if (kind_ != Kind::kValue) {
    throw std::logic_error("AttrValue: value() on special value " + to_string());
  }
  return value_;
}

std::string AttrValue::to_string() const {
  switch (kind_) {
    case Kind::kValue: return value_;
    case Kind::kAny: return "ANY";
    case Kind::kAll: return "ALL";
    case Kind::kNone: return "NONE";
    case Kind::kNull: return "NULL";
  }
  return "?";
}

bool values_match(const AttrValue& rule, const AttrValue& presented) {
  using Kind = AttrValue::Kind;
  // NONE/NULL on either side never match.
  if (rule.kind() == Kind::kNone || rule.kind() == Kind::kNull) return false;
  if (presented.kind() == Kind::kNone || presented.kind() == Kind::kNull) return false;
  // ANY/ALL on either side match every present value.
  if (rule.kind() == Kind::kAny || rule.kind() == Kind::kAll) return true;
  if (presented.kind() == Kind::kAny || presented.kind() == Kind::kAll) return true;
  return rule.value() == presented.value();
}

bool Attribute::active_at(util::SimTime now) const {
  if (stime != util::kNullTime && now < stime) return false;
  if (etime != util::kNullTime && now > etime) return false;
  return true;
}

std::string Attribute::to_string() const {
  return "<" + name + "=" + value.to_string() + ", stime=" + util::format_time(stime) +
         ", etime=" + util::format_time(etime) + ", utime=" + util::format_time(utime) +
         ">";
}

std::size_t AttributeSet::remove_all(const std::string& name) {
  const std::size_t before = attrs_.size();
  std::erase_if(attrs_, [&](const Attribute& a) { return a.name == name; });
  return before - attrs_.size();
}

const Attribute* AttributeSet::find(const std::string& name) const {
  for (const Attribute& a : attrs_) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

std::vector<const Attribute*> AttributeSet::find_active(const std::string& name,
                                                        util::SimTime now) const {
  std::vector<const Attribute*> out;
  for (const Attribute& a : attrs_) {
    if (a.name == name && a.active_at(now)) out.push_back(&a);
  }
  return out;
}

bool AttributeSet::matches(const std::string& name, const AttrValue& rule,
                           util::SimTime now) const {
  for (const Attribute& a : attrs_) {
    if (a.name == name && a.active_at(now) && values_match(rule, a.value)) {
      return true;
    }
  }
  return false;
}

std::optional<util::SimTime> AttributeSet::earliest_expiry() const {
  std::optional<util::SimTime> earliest;
  for (const Attribute& a : attrs_) {
    if (a.etime == util::kNullTime) continue;
    if (!earliest || a.etime < *earliest) earliest = a.etime;
  }
  return earliest;
}

std::optional<util::SimTime> AttributeSet::latest_update() const {
  std::optional<util::SimTime> latest;
  for (const Attribute& a : attrs_) {
    if (a.utime == util::kNullTime) continue;
    if (!latest || a.utime > *latest) latest = a.utime;
  }
  return latest;
}

}  // namespace p2pdrm::core
