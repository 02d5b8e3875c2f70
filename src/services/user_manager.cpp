#include "services/user_manager.h"

#include "core/auth.h"
#include "crypto/hmac.h"

namespace p2pdrm::services {

using core::DrmError;

UserManager::UserManager(std::shared_ptr<UserManagerDomain> domain,
                         const geo::GeoDatabase* geo, crypto::SecureRandom rng)
    : domain_(std::move(domain)), dir_(&domain_->directory), geo_(geo),
      rng_(std::move(rng)) {}

void UserManager::use_local_directory(UserDirectory* dir) {
  dir_ = dir != nullptr ? dir : &domain_->directory;
}

const UserRecord& UserManager::provision(const UserProvisioning& p) {
  auto [it, inserted] = dir_->users.try_emplace(p.account.email);
  if (inserted) it->second.user_in = dir_->next_user_in++;
  it->second.account = p.account;
  return it->second;
}

void UserManager::apply_provision(const UserRecord& rec) {
  dir_->users[rec.account.email] = rec;
  if (rec.user_in >= dir_->next_user_in) dir_->next_user_in = rec.user_in + 1;
}

void UserManager::update_channel_attributes(core::AttributeSet list) {
  domain_->channel_attribute_list = std::move(list);
}

util::UserIN UserManager::user_in_of(const std::string& email) const {
  const auto it = dir_->users.find(email);
  return it == dir_->users.end() ? 0 : it->second.user_in;
}

util::Bytes UserManager::login_binding(const std::string& email,
                                       const crypto::RsaPublicKey& client_key,
                                       std::uint32_t client_version,
                                       const core::ChecksumParams& params) const {
  util::WireWriter w;
  w.str(email);
  const crypto::Sha256Digest fp = client_key.fingerprint();
  w.raw(util::BytesView(fp.data(), fp.size()));
  w.u32(client_version);
  params.encode(w);
  return w.take();
}

core::Login1Response UserManager::handle_login1(const core::Login1Request& req,
                                                util::NetAddr /*conn_addr*/,
                                                util::SimTime now) {
  core::Login1Response resp;
  if (req.client_version < domain_->config.minimum_client_version) {
    resp.error = DrmError::kVersionTooOld;
    return resp;
  }
  const auto user_it = dir_->users.find(req.email);
  const bool known =
      user_it != dir_->users.end() && !user_it->second.account.suspended;
  // Anti-oracle: an unknown (or suspended) account gets a decoy response
  // that is shape-identical to a real one — same error code, same rng draw
  // order, same field sizes — built under a deterministic decoy shp derived
  // from the farm secret. Without the account's password nobody can decrypt
  // the payload either way, so a forgery probe learns nothing about whether
  // the email exists. The probe only fails later, at LOGIN2, with the same
  // kChallengeInvalid / kBadCredentials envelope a wrong password earns.
  crypto::Sha256Digest shp;
  if (known) {
    shp = user_it->second.account.shp;
  } else {
    util::Bytes label;
    const std::string_view tag = "p2pdrm-decoy-shp";
    label.insert(label.end(), tag.begin(), tag.end());
    label.insert(label.end(), req.email.begin(), req.email.end());
    shp = crypto::hmac_sha256(domain_->farm_secret, label);
  }
  const auto bin_it = domain_->reference_binaries.find(req.client_version);
  if (bin_it == domain_->reference_binaries.end()) {
    resp.error = DrmError::kVersionTooOld;
    return resp;
  }
  const util::Bytes& binary = bin_it->second;

  // Fresh attestation window over the reference binary.
  core::ChecksumParams params;
  params.offset = static_cast<std::uint32_t>(rng_.uniform(std::max<std::size_t>(binary.size() / 2, 1)));
  const std::size_t remaining = binary.size() - params.offset;
  const std::size_t max_len =
      std::min<std::size_t>(remaining, domain_->config.max_checksum_window);
  params.length = static_cast<std::uint32_t>(rng_.uniform(std::max<std::size_t>(max_len, 1)) + 1);
  params.salt = rng_.next_u64();

  const util::Bytes nonce = rng_.bytes(core::kNonceSize);

  // nonce || params || server time, readable only with the user's password.
  util::WireWriter payload;
  payload.raw(nonce);
  params.encode(payload);
  payload.i64(now);
  resp.encrypted_params = core::encrypt_with_shp(shp, payload.data(), rng_);

  // The challenge MAC commits to the nonce, but the nonce itself is NOT in
  // the clear part of the response — the client recovers it by decrypting
  // encrypted_params and fills it into the echoed challenge. A correct echo
  // therefore proves knowledge of the password.
  resp.challenge = core::make_challenge(
      domain_->farm_secret, "login",
      login_binding(req.email, req.client_public_key, req.client_version, params),
      nonce, now);
  resp.challenge.nonce.clear();
  return resp;
}

core::Login2Response UserManager::handle_login2(const core::Login2Request& req,
                                                util::NetAddr conn_addr,
                                                util::SimTime now) {
  core::Login2Response resp;
  resp.server_time = now;
  resp.minimum_version = domain_->config.minimum_client_version;

  if (req.client_version < domain_->config.minimum_client_version) {
    resp.error = DrmError::kVersionTooOld;
    return resp;
  }
  // NOTE: no account lookup here — see the LOGIN1 decoy. An unknown email
  // fails the challenge check below exactly like a wrong password does
  // (the prober could not decrypt the decoy nonce), and the residual
  // lookup at ticket-issuance time answers with the same kBadCredentials
  // envelope a bad proof signature earns. Neither branch oracles account
  // existence.

  // Challenge echo: authentic, fresh, and bound to this email/key/params.
  // The MAC covers the nonce the server minted; the client could only have
  // filled it in by decrypting the LOGIN1 payload, so a valid echo proves
  // password knowledge.
  if (!core::verify_challenge(
          req.challenge, domain_->farm_secret, "login",
          login_binding(req.email, req.client_public_key, req.client_version,
                        req.params),
          now, domain_->config.challenge_lifetime)) {
    resp.error = DrmError::kChallengeInvalid;
    return resp;
  }

  // Proof of private-key possession: signature over nonce || checksum.
  util::Bytes signed_payload = req.challenge.nonce;
  signed_payload.insert(signed_payload.end(), req.checksum.begin(), req.checksum.end());
  if (!crypto::rsa_verify(req.client_public_key, signed_payload, req.proof)) {
    resp.error = DrmError::kBadCredentials;
    return resp;
  }

  // Remote attestation: recompute the checksum over the reference binary.
  const auto bin_it = domain_->reference_binaries.find(req.client_version);
  if (bin_it == domain_->reference_binaries.end()) {
    resp.error = DrmError::kVersionTooOld;
    return resp;
  }
  const util::Bytes expected =
      core::compute_attestation_checksum(bin_it->second, req.params);
  if (!util::constant_time_equal(expected, req.checksum)) {
    resp.error = DrmError::kAttestationFailed;
    return resp;
  }

  // Residual lookup at issuance time only. Unreachable for an unknown
  // account in practice (the challenge above can't be satisfied without
  // decrypting the decoy payload), but if it is ever reached it answers
  // with the same envelope — and after the same MAC + signature work — as
  // a bad proof signature, so it is not an existence oracle.
  const auto user_it = dir_->users.find(req.email);
  if (user_it == dir_->users.end() || user_it->second.account.suspended) {
    resp.error = DrmError::kBadCredentials;
    return resp;
  }

  // Issue the User Ticket (this also certifies the client's public key).
  core::UserTicket ticket;
  ticket.user_in = user_it->second.user_in;
  ticket.client_public_key = req.client_public_key;
  ticket.start_time = now;
  ticket.attributes =
      synthesize_attributes(user_it->second.account, conn_addr, req.client_version, now);
  ticket.expiry_time = now + domain_->config.ticket_lifetime;
  // Never outlive any attribute (§IV-B): renewal before the first expiry.
  if (const auto earliest = ticket.attributes.earliest_expiry();
      earliest && *earliest < ticket.expiry_time) {
    ticket.expiry_time = *earliest;
  }

  resp.ticket = core::SignedUserTicket::sign(ticket, domain_->keys.priv);
  return resp;
}

core::AttributeSet UserManager::synthesize_attributes(const AccountRecord& account,
                                                      util::NetAddr conn_addr,
                                                      std::uint32_t client_version,
                                                      util::SimTime now) const {
  core::AttributeSet attrs;

  // utime provenance: each synthesized attribute inherits the utime of the
  // matching entry in the Channel Attribute List, which is what tells the
  // client its cached Channel List went stale (§IV-B).
  const auto utime_for = [&](const std::string& name, const core::AttrValue& value) {
    for (const core::Attribute& a : domain_->channel_attribute_list.items()) {
      if (a.name == name && core::values_match(a.value, value)) return a.utime;
    }
    return util::kNullTime;
  };

  const auto add = [&](std::string name, core::AttrValue value, util::SimTime stime,
                       util::SimTime etime) {
    core::Attribute a;
    a.name = std::move(name);
    a.value = std::move(value);
    a.stime = stime;
    a.etime = etime;
    a.utime = utime_for(a.name, a.value);
    attrs.add(std::move(a));
  };

  add(core::kAttrNetAddr, core::AttrValue::of(util::to_string(conn_addr)),
      util::kNullTime, util::kNullTime);
  add(core::kAttrVersion, core::AttrValue::of_number(client_version),
      util::kNullTime, util::kNullTime);

  if (geo_ != nullptr) {
    const geo::GeoInfo info = geo_->lookup(conn_addr);
    add(core::kAttrRegion, core::AttrValue::of_number(info.region),
        util::kNullTime, util::kNullTime);
    add(core::kAttrAs, core::AttrValue::of_number(info.as_number),
        util::kNullTime, util::kNullTime);
  }

  for (const SubscriptionGrant& grant : account.subscriptions) {
    // Skip grants that already ended; keep future ones (stime forward).
    if (grant.etime != util::kNullTime && grant.etime < now) continue;
    add(core::kAttrSubscription, core::AttrValue::of(grant.package), grant.stime,
        grant.etime);
  }
  return attrs;
}

}  // namespace p2pdrm::services
