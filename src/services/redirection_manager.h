// Redirection Manager (§V).
//
// Bootstraps clients into the right Authentication Domain: one hash-table
// lookup from the user's email to the User Manager the user is assigned to,
// plus the coordinates (address + public key) of the Channel Policy
// Manager. Its own address and public key are baked into the client binary;
// it is the only well-known entry point of the whole service.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "crypto/rsa.h"
#include "util/ids.h"
#include "util/wire.h"

namespace p2pdrm::services {

/// Coordinates of a logical manager: one shared name/address and public key
/// per domain or partition, regardless of farm size (§V).
struct ManagerCoordinates {
  util::NetAddr addr;
  util::Bytes public_key;  // encoded RsaPublicKey

  template <class Io>
  void fields(Io& io) {
    io(addr, public_key);
  }
  friend bool operator==(const ManagerCoordinates&, const ManagerCoordinates&) = default;
};

struct RedirectRequest {
  std::string email;

  template <class Io>
  void fields(Io& io) {
    io(email);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static RedirectRequest decode(util::BytesView data) {
    return util::decode_fields<RedirectRequest>(data);
  }
};

struct RedirectResponse {
  bool found = false;
  std::uint32_t domain = 0;
  ManagerCoordinates user_manager;
  ManagerCoordinates channel_policy_manager;

  template <class Io>
  void fields(Io& io) {
    io(found, domain, user_manager, channel_policy_manager);
  }
  util::Bytes encode() const { return util::encode_fields(*this); }
  static RedirectResponse decode(util::BytesView data) {
    return util::decode_fields<RedirectResponse>(data);
  }
};

class RedirectionManager {
 public:
  /// Register a domain's User Manager coordinates. Called repeatedly it
  /// grows the domain's instance pool: each call adds one farm instance
  /// (the first registered instance is the farm's "primary").
  void register_domain(std::uint32_t domain, ManagerCoordinates um);
  /// Assign a user to a domain (the Account Manager does this at signup).
  void assign_user(const std::string& email, std::uint32_t domain);
  void set_channel_policy_manager(ManagerCoordinates cpm);

  /// Health steering: lookups never return an instance marked down. The
  /// health signal comes from the operations plane (the deployment knows
  /// which farm members it crashed); a production redirector would run
  /// heartbeats instead.
  void set_instance_health(std::uint32_t domain, util::NetAddr addr, bool healthy);

  RedirectResponse handle_lookup(const RedirectRequest& req) const;

 private:
  struct Instance {
    ManagerCoordinates coords;
    bool healthy = true;
  };
  struct Domain {
    std::vector<Instance> instances;
    /// Round-robin cursor so a farm spreads logins across its members.
    mutable std::size_t cursor = 0;
  };

  std::map<std::string, std::uint32_t> user_domain_;
  std::map<std::uint32_t, Domain> domains_;
  ManagerCoordinates cpm_;
};

}  // namespace p2pdrm::services
