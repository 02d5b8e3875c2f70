// Channel Manager (§IV-C, §IV-D).
//
// Verifies User Tickets, evaluates channel policies, issues and renews
// Channel Tickets, enforces the one-account-one-session rule through the
// viewing-activity log, and hands out (unsigned) peer lists. Stateless per
// client like the User Manager; a farm serving one Channel Listing
// Partition shares the signing keys, farm secret, and the viewing log.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/messages.h"
#include "core/policy.h"
#include "core/ticket.h"
#include "crypto/chacha20.h"
#include "crypto/rsa.h"
#include "util/ids.h"

namespace p2pdrm::services {

/// Viewing-activity log (§IV-C purpose 3, §IV-D). One per Channel Manager
/// farm replica. Keeps both the latest entry per (user, channel) — what
/// renewal checks consult — and a full audit trail for license payment,
/// royalty payment, and billing.
///
/// Entries merge commutatively across replicas: `latest_` only moves
/// forward in entry time (last-writer-wins on equal timestamps), so two
/// replicas applying the same entries in different interleavings converge.
///
/// Week-scale runs bound memory with set_audit_cap(): once the audit trail
/// exceeds the cap it rotates down to half the cap, folding evicted entries
/// into per-channel aggregates so size() and views_per_channel() stay
/// exact. Rotation never evicts an entry that is the live latest fresh
/// issue for its (user, channel) — the renewal index stays derivable from
/// the retained audit trail alone.
class ViewingLog {
 public:
  struct Entry {
    util::UserIN user_in = 0;
    util::ChannelId channel = 0;
    util::NetAddr addr;
    util::SimTime time = 0;
    bool renewal = false;

    template <class Io>
    void fields(Io& io) {
      io(user_in, channel, addr, time, renewal);
    }
  };

  void record(const Entry& entry);

  /// Latest *fresh-issue* entry for (user, channel); renewals do not move
  /// it (§IV-D: renewal matches against the latest new-ticket entry).
  const Entry* latest(util::UserIN user, util::ChannelId channel) const;

  /// Total entries ever recorded (retained + rotated).
  std::size_t size() const { return audit_.size() + rotated_count_; }
  /// Entries still held verbatim (≤ size() once rotation kicks in).
  const std::vector<Entry>& audit_trail() const { return audit_; }
  std::uint64_t rotated_count() const { return rotated_count_; }

  /// 0 = unbounded (default).
  void set_audit_cap(std::size_t cap);

  /// Fresh-issue view counts per channel (royalty/advertising reporting);
  /// exact even after rotation, via the retained aggregates.
  std::map<util::ChannelId, std::size_t> views_per_channel() const;

  /// Durable form: billing and royalty data must survive manager restarts
  /// (this is also what a farm replica snapshots). Deterministic: equal
  /// logs encode to identical bytes.
  util::Bytes encode() const;
  /// Rebuild from encode()'s output (the latest-entry index is rederived).
  /// Throws util::WireError on corrupted input. The audit cap is not part
  /// of the durable form; the caller re-applies it.
  static ViewingLog decode(util::BytesView data);

 private:
  bool is_live_latest(const Entry& e) const;
  void maybe_rotate();

  std::vector<Entry> audit_;
  std::map<std::pair<util::UserIN, util::ChannelId>, Entry> latest_;
  std::size_t audit_cap_ = 0;
  std::uint64_t rotated_count_ = 0;
  std::map<util::ChannelId, std::uint64_t> rotated_views_;
};

/// Where the Channel Manager gets candidate peers for a channel. The P2P
/// tracker implements this; tests use stubs.
class PeerDirectory {
 public:
  virtual ~PeerDirectory() = default;
  /// Up to `max_peers` peers carrying `channel`, excluding `requester`.
  virtual std::vector<core::PeerInfo> sample_peers(util::ChannelId channel,
                                                   std::size_t max_peers,
                                                   util::NetAddr requester) = 0;
};

struct ChannelManagerConfig {
  /// Channel Listing Partition this manager serves (§V).
  std::uint32_t partition = 0;
  /// Channel Ticket lifetime (further capped by the User Ticket's remaining
  /// lifetime, §IV-C).
  util::SimTime ticket_lifetime = 10 * util::kMinute;
  util::SimTime challenge_lifetime = 2 * util::kMinute;
  /// Renewal must be requested within this window before the old ticket's
  /// expiry ("within a small window of the ticket expiration time", §IV-D).
  util::SimTime renewal_window = 3 * util::kMinute;
  /// How many peers to return with a Channel Ticket.
  std::size_t peer_list_size = 8;
};

/// State shared by every instance of a partition's Channel Manager farm.
struct ChannelManagerPartition {
  ChannelManagerPartition(ChannelManagerConfig config, crypto::RsaKeyPair keys,
                          crypto::RsaPublicKey um_public_key, util::Bytes farm_secret)
      : config(config), keys(std::move(keys)),
        um_public_key(std::move(um_public_key)), farm_secret(std::move(farm_secret)) {}

  ChannelManagerConfig config;
  crypto::RsaKeyPair keys;
  crypto::RsaPublicKey um_public_key;
  util::Bytes farm_secret;
  std::map<util::ChannelId, core::ChannelRecord> channels;
  ViewingLog log;
};

class ChannelManager {
 public:
  /// Notified after every viewing-log append this manager performs; the
  /// durable deployment journals + replicates the entry from here.
  using ViewingSink = std::function<void(const ViewingLog::Entry&)>;

  ChannelManager(std::shared_ptr<ChannelManagerPartition> partition,
                 PeerDirectory* peers, crypto::SecureRandom rng);

  /// Ingest hook for Channel Policy Manager channel-list pushes; keeps only
  /// channels assigned to this partition.
  void update_channel_list(const std::vector<core::ChannelRecord>& list);

  /// Re-home the viewing log onto an instance-owned replica instead of the
  /// partition-shared one (durable deployments). `log` must outlive this
  /// manager; pass nullptr to revert to the shared log.
  void use_local_log(ViewingLog* log);
  void set_viewing_sink(ViewingSink sink) { viewing_sink_ = std::move(sink); }

  core::Switch1Response handle_switch1(const core::Switch1Request& req,
                                       util::NetAddr conn_addr, util::SimTime now);
  core::Switch2Response handle_switch2(const core::Switch2Request& req,
                                       util::NetAddr conn_addr, util::SimTime now);

  const crypto::RsaPublicKey& public_key() const { return partition_->keys.pub; }
  const ViewingLog& log() const { return *log_; }
  const ChannelManagerPartition& partition() const { return *partition_; }

 private:
  struct ValidatedRequest {
    core::SignedUserTicket user_ticket;
    util::ChannelId channel_id = 0;
    std::optional<core::SignedChannelTicket> expiring;
    const core::ChannelRecord* channel = nullptr;
  };

  /// Shared validation for both rounds; returns error or the parsed pieces.
  std::optional<core::DrmError> validate(const util::Bytes& user_ticket_bytes,
                                         util::ChannelId channel_id,
                                         const util::Bytes& expiring_bytes,
                                         util::NetAddr conn_addr, util::SimTime now,
                                         ValidatedRequest& out) const;

  util::Bytes switch_binding(const util::Bytes& user_ticket_bytes,
                             util::ChannelId channel_id,
                             const util::Bytes& expiring_bytes) const;

  std::shared_ptr<ChannelManagerPartition> partition_;
  ViewingLog* log_;  // partition_->log by default; instance replica when durable
  ViewingSink viewing_sink_;
  PeerDirectory* peers_;
  mutable crypto::SecureRandom rng_;
};

}  // namespace p2pdrm::services
