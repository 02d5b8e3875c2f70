// Account Manager (§II "Viewing Experience", §IV-B).
//
// Account creation, subscription purchase, and top-ups happen out-of-band at
// the service provider's web site — this class models that site's backend.
// It owns the authoritative account records and "securely sends the user's
// identification, subscription, and payment information to the User
// Manager" (modeled as a provisioning feed the User Manager subscribes to).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/auth.h"
#include "util/time.h"
#include "util/wire.h"

namespace p2pdrm::services {

/// One subscription grant: a package name with a validity window.
struct SubscriptionGrant {
  std::string package;                       // e.g. "101" (Fig. 2's example)
  util::SimTime stime = util::kNullTime;     // null = active immediately
  util::SimTime etime = util::kNullTime;     // null = never expires

  template <class Io>
  void fields(Io& io) {
    io(package, stime, etime);
  }

  friend bool operator==(const SubscriptionGrant&, const SubscriptionGrant&) = default;
};

struct AccountRecord {
  std::string email;
  crypto::Sha256Digest shp{};  // secure hash of password; never the password
  std::vector<SubscriptionGrant> subscriptions;
  util::SimTime created_at = 0;
  bool suspended = false;

  /// A grant takes at least 17 bytes on the wire, so decoders reject grant
  /// counts the rest of the input cannot back.
  template <class Io>
  void fields(Io& io) {
    io(email, shp, util::counted_backed(subscriptions, 17), created_at, suspended);
  }
};

/// Provisioning message pushed to the User Manager whenever an account
/// changes (creation, subscription change, suspension).
struct UserProvisioning {
  AccountRecord account;
};

class AccountManager {
 public:
  using ProvisioningSink = std::function<void(const UserProvisioning&)>;

  /// `sink` receives every account creation/update (the User Manager's
  /// ingest hook). May be empty; set_sink can attach one later, which
  /// replays all existing accounts.
  explicit AccountManager(ProvisioningSink sink = nullptr);

  void set_sink(ProvisioningSink sink);

  /// Create an account. Returns false if the email is already registered.
  bool create_account(const std::string& email, const std::string& password,
                      util::SimTime now);

  /// Add a subscription grant. Returns false for unknown accounts.
  bool subscribe(const std::string& email, const SubscriptionGrant& grant);

  /// Remove all grants for a package. Returns false for unknown accounts.
  bool unsubscribe(const std::string& email, const std::string& package);

  /// Suspend/unsuspend (e.g. payment failure). Returns false if unknown.
  bool set_suspended(const std::string& email, bool suspended);

  /// Verify a password attempt (used by tests; the User Manager never sees
  /// passwords, only shp digests).
  bool check_password(const std::string& email, const std::string& password) const;

  const AccountRecord* find(const std::string& email) const;
  std::size_t account_count() const { return accounts_.size(); }

 private:
  void push(const AccountRecord& account);

  std::map<std::string, AccountRecord> accounts_;
  ProvisioningSink sink_;
};

}  // namespace p2pdrm::services
