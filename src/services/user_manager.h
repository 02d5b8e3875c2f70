// User Manager (§IV-B, §IV-F1).
//
// Authenticates users, runs the two-round login protocol (LOGIN1/LOGIN2),
// synthesizes user attributes from account data + connection information +
// the Channel Attribute List, and issues signed User Tickets that also
// certify the client's public key.
//
// The handlers are *stateless* with respect to clients (§V): a login begun
// against one farm instance can complete against another, because the
// LOGIN1 challenge is self-contained (MAC under the farm secret). All farm
// instances share the signing key pair, the farm secret, and the user DB.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/messages.h"
#include "core/ticket.h"
#include "crypto/rsa.h"
#include "geo/geodb.h"
#include "services/account_manager.h"
#include "util/ids.h"

namespace p2pdrm::services {

struct UserManagerConfig {
  /// Authentication Domain this manager serves (§V).
  std::uint32_t domain = 0;
  /// User Ticket lifetime. The paper recommends "less than the average
  /// length of a program in the channel"; default 30 minutes.
  util::SimTime ticket_lifetime = 30 * util::kMinute;
  /// How long a LOGIN1 challenge stays valid.
  util::SimTime challenge_lifetime = 2 * util::kMinute;
  /// Minimum client version admitted (enforced via the Version attribute
  /// and the login protocol).
  std::uint32_t minimum_client_version = 1;
  /// Largest attestation window the manager will request.
  std::uint32_t max_checksum_window = 64 * 1024;
};

struct UserRecord {
  util::UserIN user_in = 0;
  AccountRecord account;

  template <class Io>
  void fields(Io& io) {
    io(user_in, account);
  }
};

/// The user DB proper — the *mutable* half of a User Manager's state.
/// Durable deployments give each farm instance its own replica (backed by a
/// journaled store); the shared-state default keeps one per domain.
struct UserDirectory {
  std::map<std::string, UserRecord> users;  // keyed by email
  util::UserIN next_user_in = 1;
};

/// Shared state of a User Manager *farm*: every instance serving one
/// Authentication Domain shares the signing key, farm secret, and user DB
/// so that the farm presents the logical view of a single User Manager.
struct UserManagerDomain {
  UserManagerDomain(UserManagerConfig config, crypto::RsaKeyPair keys,
                    util::Bytes farm_secret)
      : config(config), keys(std::move(keys)), farm_secret(std::move(farm_secret)) {}

  UserManagerConfig config;
  crypto::RsaKeyPair keys;
  util::Bytes farm_secret;

  /// Legacy alias so callers can keep saying `UserManagerDomain::UserRecord`.
  using UserRecord = services::UserRecord;

  UserDirectory directory;

  /// Reference client binaries by version, used to verify attestation
  /// checksums. In production these are the released builds.
  std::map<std::uint32_t, util::Bytes> reference_binaries;

  /// Channel Attribute List pushed by the Channel Policy Manager; source of
  /// utime stamps on user attributes.
  core::AttributeSet channel_attribute_list;
};

class UserManager {
 public:
  /// `geo` supplies Region/AS inference; may be nullptr (attributes omitted,
  /// used by some unit tests).
  UserManager(std::shared_ptr<UserManagerDomain> domain,
              const geo::GeoDatabase* geo, crypto::SecureRandom rng);

  /// Re-home the user DB onto an instance-owned replica instead of the
  /// domain-shared one (durable deployments). `dir` must outlive this
  /// manager; pass nullptr to revert to the shared directory.
  void use_local_directory(UserDirectory* dir);

  /// Ingest hook for Account Manager provisioning pushes. Returns the
  /// resulting record (with its assigned UserIN) so a durable deployment
  /// can journal + replicate it.
  const UserRecord& provision(const UserProvisioning& p);

  /// Apply an already-assigned record replicated from a sibling instance:
  /// upserts by email, keeping next_user_in past the record's UserIN.
  void apply_provision(const UserRecord& rec);

  /// Ingest hook for Channel Policy Manager attribute-list pushes.
  void update_channel_attributes(core::AttributeSet list);

  core::Login1Response handle_login1(const core::Login1Request& req,
                                     util::NetAddr conn_addr, util::SimTime now);
  core::Login2Response handle_login2(const core::Login2Request& req,
                                     util::NetAddr conn_addr, util::SimTime now);

  /// Attribute synthesis (also used directly by tests): account data +
  /// connection info + Channel Attribute List -> user attributes.
  core::AttributeSet synthesize_attributes(const AccountRecord& account,
                                           util::NetAddr conn_addr,
                                           std::uint32_t client_version,
                                           util::SimTime now) const;

  const crypto::RsaPublicKey& public_key() const { return domain_->keys.pub; }
  const UserManagerDomain& domain() const { return *domain_; }

  /// Look up the UserIN assigned to an email (0 if unknown).
  util::UserIN user_in_of(const std::string& email) const;

 private:
  util::Bytes login_binding(const std::string& email,
                            const crypto::RsaPublicKey& client_key,
                            std::uint32_t client_version,
                            const core::ChecksumParams& params) const;

  std::shared_ptr<UserManagerDomain> domain_;
  UserDirectory* dir_;  // domain_->directory by default; replica when durable
  const geo::GeoDatabase* geo_;
  mutable crypto::SecureRandom rng_;
};

}  // namespace p2pdrm::services
