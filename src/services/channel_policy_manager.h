// Channel Policy Manager (§IV-A).
//
// The administrative hub for digital rights: it owns the Channel List
// (every channel with its attributes and policies) and the Channel
// Attribute List (the unique attributes collated from all channels, with
// last-update times). Every administrative change bumps the relevant
// utimes, pushes the Channel List to the Channel Managers and the Channel
// Attribute List to the User Managers; the utimes then flow into User
// Tickets, which is how clients learn to refetch the Channel List.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/policy.h"
#include "crypto/rsa.h"

namespace p2pdrm::services {

class ChannelPolicyManager {
 public:
  using ChannelListSink = std::function<void(const std::vector<core::ChannelRecord>&)>;
  using AttributeListSink = std::function<void(const core::AttributeSet&)>;

  /// `um_public_key` verifies User Tickets on channel-list fetches.
  explicit ChannelPolicyManager(crypto::RsaPublicKey um_public_key);

  // --- administrative operations (each pushes updates) ---

  /// Add a channel (throws std::invalid_argument on duplicate id).
  void add_channel(core::ChannelRecord channel, util::SimTime now);
  /// Remove a channel; returns false if unknown.
  bool remove_channel(util::ChannelId id, util::SimTime now);
  /// Remove attributes by name from a channel; returns count removed.
  std::size_t remove_channel_attribute(util::ChannelId id, const std::string& name,
                                       util::SimTime now);
  /// Replace a channel's policies (throws on unknown channel).
  void set_policies(util::ChannelId id, std::vector<core::Policy> policies,
                    util::SimTime now);
  /// Add one policy (throws on unknown channel).
  void add_policy(util::ChannelId id, core::Policy policy, util::SimTime now);

  /// Black out a channel for [start, end] (§IV-A's worked example): adds a
  /// Region=ANY attribute valid over the window plus a higher-priority
  /// REJECT policy matching it.
  void blackout(util::ChannelId id, util::SimTime start, util::SimTime end,
                util::SimTime now, std::uint32_t priority = 100);

  /// Make [start, end] of a channel a pay-per-view program sold as
  /// `package` (§II: PPV purchases happen out-of-band at the Account
  /// Manager; a purchase is a Subscription grant for `package`). During the
  /// window, everyone is rejected (priority `priority`) except holders of
  /// the package (priority `priority`+1); outside it, the channel's
  /// ordinary policies apply untouched.
  void add_ppv_program(util::ChannelId id, const std::string& package,
                       util::SimTime start, util::SimTime end, util::SimTime now,
                       std::uint32_t priority = 100);

  // --- subscriptions (push targets) ---

  void add_channel_list_sink(ChannelListSink sink);
  void add_attribute_list_sink(AttributeListSink sink);

  /// Register partition coordinates returned to clients with channel lists.
  void set_partition_info(core::PartitionInfo info);

  // --- client-facing ---

  core::ChannelListResponse handle_channel_list(const core::ChannelListRequest& req,
                                                util::SimTime now) const;

  // --- introspection ---

  const std::vector<core::ChannelRecord> channel_list() const;
  const core::AttributeSet& channel_attribute_list() const { return attr_list_; }
  const core::ChannelRecord* find_channel(util::ChannelId id) const;

 private:
  void rebuild_attribute_list(const core::ChannelRecord* touched);
  void touch_channel(core::ChannelRecord& channel, util::SimTime now);
  void push_updates();

  crypto::RsaPublicKey um_public_key_;
  std::map<util::ChannelId, core::ChannelRecord> channels_;
  core::AttributeSet attr_list_;
  std::vector<ChannelListSink> channel_list_sinks_;
  std::vector<AttributeListSink> attribute_list_sinks_;
  std::vector<core::PartitionInfo> partitions_;
};

}  // namespace p2pdrm::services
