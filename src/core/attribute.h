// Attributes — the unit of rights description in the paper (§IV-A, §IV-B).
//
// Both users and channels carry sets of
//   < attribute, value, stime, etime, utime >
// tuples. `stime`/`etime` bound the validity window (NULL = unbounded);
// `utime` is the last-update time the Channel Policy Manager uses to tell
// clients their cached Channel List is stale.
//
// Values support the paper's globally-defined specials (ANY, ALL, NONE,
// NULL) in addition to plain strings.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/time.h"
#include "util/wire.h"

namespace p2pdrm::core {

/// Well-known attribute names (Table I of the paper). Attribute names are
/// open-ended strings; these constants cover the ones the system itself
/// assigns.
inline constexpr const char* kAttrNetAddr = "NetAddr";
inline constexpr const char* kAttrRegion = "Region";
inline constexpr const char* kAttrAs = "AS";
inline constexpr const char* kAttrVersion = "Version";
inline constexpr const char* kAttrSubscription = "Subscription";

/// An attribute value: either a concrete string or one of the special
/// values defined globally throughout the DRM architecture.
class AttrValue {
 public:
  enum class Kind : std::uint8_t {
    kValue = 0,  // concrete string
    kAny = 1,    // matches every concrete value
    kAll = 2,    // matches every concrete value (user-side wildcard)
    kNone = 3,   // matches nothing
    kNull = 4,   // unset; matches nothing
  };

  /// Defaults to NULL (unset).
  AttrValue() = default;

  static AttrValue of(std::string value);
  static AttrValue of_number(std::uint64_t value);
  static AttrValue any() { return AttrValue(Kind::kAny); }
  static AttrValue all() { return AttrValue(Kind::kAll); }
  static AttrValue none() { return AttrValue(Kind::kNone); }
  static AttrValue null() { return AttrValue(Kind::kNull); }

  Kind kind() const { return kind_; }
  bool is_special() const { return kind_ != Kind::kValue; }
  /// The concrete string; throws std::logic_error for special values.
  const std::string& value() const;

  /// Rendering: concrete value as-is, specials as "ANY"/"ALL"/"NONE"/"NULL".
  std::string to_string() const;

  void encode(util::WireWriter& w) const { w(*this); }
  static AttrValue decode(util::WireReader& r) { return r.read<AttrValue>(); }

  friend bool operator==(const AttrValue&, const AttrValue&) = default;
  friend constexpr util::EnumRange<Kind> wire_range(Kind) {
    return {Kind::kValue, Kind::kNull};
  }

 private:
  friend class util::WireWriter;
  friend class util::WireReader;

  explicit AttrValue(Kind kind) : kind_(kind) {}

  /// The kind, then the string for a concrete value only.
  template <class Io>
  void fields(Io& io) {
    io(kind_);
    if (kind_ == Kind::kValue) io(value_);
  }

  Kind kind_ = Kind::kNull;
  std::string value_;
};

/// Matching rule used by policy evaluation. `rule` comes from the channel
/// side (a policy term grounded in a channel attribute), `presented` from
/// the user side:
///   - ANY/ALL on either side matches any *present* concrete value,
///   - NONE/NULL on either side never matches,
///   - concrete values match by string equality.
bool values_match(const AttrValue& rule, const AttrValue& presented);

/// One < attribute, value, stime, etime, utime > tuple.
struct Attribute {
  std::string name;
  AttrValue value;
  util::SimTime stime = util::kNullTime;  // validity start (null = always)
  util::SimTime etime = util::kNullTime;  // validity end   (null = never expires)
  util::SimTime utime = util::kNullTime;  // last update (provenance metadata)

  /// True when `now` falls inside [stime, etime] (null bounds are open).
  bool active_at(util::SimTime now) const;

  std::string to_string() const;

  template <class Io>
  void fields(Io& io) {
    io(name, value, stime, etime, utime);
  }
  void encode(util::WireWriter& w) const { w(*this); }
  static Attribute decode(util::WireReader& r) { return r.read<Attribute>(); }

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

/// An attribute set with the lookups policy evaluation and ticket handling
/// need. Multiple attributes may share a name (e.g. several Subscription
/// entries, or overlapping Region windows).
class AttributeSet {
 public:
  AttributeSet() = default;
  explicit AttributeSet(std::vector<Attribute> attrs) : attrs_(std::move(attrs)) {}

  void add(Attribute attr) { attrs_.push_back(std::move(attr)); }
  /// Remove every attribute with this name; returns how many were removed.
  std::size_t remove_all(const std::string& name);

  const std::vector<Attribute>& items() const { return attrs_; }
  std::size_t size() const { return attrs_.size(); }
  bool empty() const { return attrs_.empty(); }

  /// First attribute with the given name (any validity), or nullptr.
  const Attribute* find(const std::string& name) const;
  /// All attributes with the given name that are active at `now`.
  std::vector<const Attribute*> find_active(const std::string& name,
                                            util::SimTime now) const;

  /// True if some active attribute with this name matches `rule` under
  /// values_match().
  bool matches(const std::string& name, const AttrValue& rule,
               util::SimTime now) const;

  /// Earliest non-null etime across all attributes (nullopt if none). The
  /// User Manager caps ticket lifetime with this so tickets never outlive
  /// any contained attribute (§IV-B).
  std::optional<util::SimTime> earliest_expiry() const;

  /// Latest non-null utime across all attributes (nullopt if none).
  std::optional<util::SimTime> latest_update() const;

  void encode(util::WireWriter& w) const { w(*this); }
  static AttributeSet decode(util::WireReader& r) { return r.read<AttributeSet>(); }

  friend bool operator==(const AttributeSet&, const AttributeSet&) = default;

 private:
  friend class util::WireWriter;
  friend class util::WireReader;

  /// Sanity bound: a ticket with millions of attributes is malformed.
  template <class Io>
  void fields(Io& io) {
    io(util::counted(attrs_, 10000));
  }

  std::vector<Attribute> attrs_;
};

}  // namespace p2pdrm::core
