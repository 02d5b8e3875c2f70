#include "services/channel_policy_manager.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace p2pdrm::services {

using core::DrmError;

ChannelPolicyManager::ChannelPolicyManager(crypto::RsaPublicKey um_public_key)
    : um_public_key_(std::move(um_public_key)) {}

void ChannelPolicyManager::add_channel(core::ChannelRecord channel, util::SimTime now) {
  if (channels_.contains(channel.id)) {
    throw std::invalid_argument("ChannelPolicyManager: duplicate channel id " +
                                std::to_string(channel.id));
  }
  auto& stored = channels_.emplace(channel.id, std::move(channel)).first->second;
  touch_channel(stored, now);
  rebuild_attribute_list(&stored);
  push_updates();
}

bool ChannelPolicyManager::remove_channel(util::ChannelId id, util::SimTime now) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return false;
  // Capture the attributes being retired so their collated entries get a
  // fresh utime ("if a channel is added or deleted from the offering of
  // region X, the Region=X attribute has its last-update time made current").
  core::ChannelRecord removed = std::move(it->second);
  channels_.erase(it);
  touch_channel(removed, now);
  rebuild_attribute_list(&removed);
  push_updates();
  return true;
}

std::size_t ChannelPolicyManager::remove_channel_attribute(util::ChannelId id,
                                                           const std::string& name,
                                                           util::SimTime now) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return 0;
  core::ChannelRecord before = it->second;  // retired attrs need utime bumps
  const std::size_t removed = it->second.attributes.remove_all(name);
  if (removed > 0) {
    touch_channel(before, now);
    touch_channel(it->second, now);
    rebuild_attribute_list(&before);
    push_updates();
  }
  return removed;
}

void ChannelPolicyManager::set_policies(util::ChannelId id,
                                        std::vector<core::Policy> policies,
                                        util::SimTime now) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) {
    throw std::invalid_argument("ChannelPolicyManager: unknown channel");
  }
  it->second.policies = std::move(policies);
  touch_channel(it->second, now);
  rebuild_attribute_list(&it->second);
  push_updates();
}

void ChannelPolicyManager::add_policy(util::ChannelId id, core::Policy policy,
                                      util::SimTime now) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) {
    throw std::invalid_argument("ChannelPolicyManager: unknown channel");
  }
  it->second.policies.push_back(std::move(policy));
  touch_channel(it->second, now);
  rebuild_attribute_list(&it->second);
  push_updates();
}

void ChannelPolicyManager::blackout(util::ChannelId id, util::SimTime start,
                                    util::SimTime end, util::SimTime now,
                                    std::uint32_t priority) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) {
    throw std::invalid_argument("ChannelPolicyManager: unknown channel");
  }
  // §IV-A worked example: a Region=ANY attribute active over the blackout
  // window grounds a high-priority REJECT policy; every user's concrete
  // Region matches ANY, so nobody passes while the window is active.
  core::Attribute any_region;
  any_region.name = core::kAttrRegion;
  any_region.value = core::AttrValue::any();
  any_region.stime = start;
  any_region.etime = end;
  it->second.attributes.add(std::move(any_region));

  core::Policy reject;
  reject.priority = priority;
  reject.terms.push_back({core::kAttrRegion, core::AttrValue::any()});
  reject.action = core::PolicyAction::kReject;
  it->second.policies.push_back(std::move(reject));

  touch_channel(it->second, now);
  rebuild_attribute_list(&it->second);
  push_updates();
}

void ChannelPolicyManager::add_ppv_program(util::ChannelId id, const std::string& package,
                                           util::SimTime start, util::SimTime end,
                                           util::SimTime now, std::uint32_t priority) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) {
    throw std::invalid_argument("ChannelPolicyManager: unknown channel");
  }
  // Windowed blanket REJECT (same construction as a blackout)...
  core::Attribute any_region;
  any_region.name = core::kAttrRegion;
  any_region.value = core::AttrValue::any();
  any_region.stime = start;
  any_region.etime = end;
  it->second.attributes.add(std::move(any_region));
  core::Policy reject;
  reject.priority = priority;
  reject.terms.push_back({core::kAttrRegion, core::AttrValue::any()});
  reject.action = core::PolicyAction::kReject;
  it->second.policies.push_back(std::move(reject));

  // ...overridden for purchasers of the program's package.
  core::Attribute ppv;
  ppv.name = core::kAttrSubscription;
  ppv.value = core::AttrValue::of(package);
  ppv.stime = start;
  ppv.etime = end;
  it->second.attributes.add(std::move(ppv));
  core::Policy accept;
  accept.priority = priority + 1;
  accept.terms.push_back({core::kAttrSubscription, core::AttrValue::of(package)});
  accept.action = core::PolicyAction::kAccept;
  it->second.policies.push_back(std::move(accept));

  touch_channel(it->second, now);
  rebuild_attribute_list(&it->second);
  push_updates();
}

void ChannelPolicyManager::add_channel_list_sink(ChannelListSink sink) {
  channel_list_sinks_.push_back(std::move(sink));
  channel_list_sinks_.back()(channel_list());
}

void ChannelPolicyManager::add_attribute_list_sink(AttributeListSink sink) {
  attribute_list_sinks_.push_back(std::move(sink));
  attribute_list_sinks_.back()(attr_list_);
}

void ChannelPolicyManager::set_partition_info(core::PartitionInfo info) {
  std::erase_if(partitions_, [&](const core::PartitionInfo& p) {
    return p.partition == info.partition;
  });
  partitions_.push_back(std::move(info));
  push_updates();
}

core::ChannelListResponse ChannelPolicyManager::handle_channel_list(
    const core::ChannelListRequest& req, util::SimTime now) const {
  core::ChannelListResponse resp;

  core::SignedUserTicket ticket;
  try {
    ticket = core::SignedUserTicket::decode(req.user_ticket);
  } catch (const util::WireError&) {
    resp.error = DrmError::kBadTicket;
    return resp;
  }
  if (!ticket.verify(um_public_key_)) {
    resp.error = DrmError::kBadTicket;
    return resp;
  }
  if (ticket.ticket.expired_at(now)) {
    resp.error = DrmError::kTicketExpired;
    return resp;
  }

  const std::set<std::string> wanted(req.stale_attributes.begin(),
                                     req.stale_attributes.end());
  for (const auto& [id, channel] : channels_) {
    if (wanted.empty()) {
      resp.channels.push_back(channel);
      continue;
    }
    const bool relevant = std::any_of(
        channel.attributes.items().begin(), channel.attributes.items().end(),
        [&](const core::Attribute& a) { return wanted.contains(a.name); });
    if (relevant) resp.channels.push_back(channel);
  }
  resp.partitions = partitions_;
  return resp;
}

const std::vector<core::ChannelRecord> ChannelPolicyManager::channel_list() const {
  std::vector<core::ChannelRecord> out;
  out.reserve(channels_.size());
  for (const auto& [id, channel] : channels_) out.push_back(channel);
  return out;
}

const core::ChannelRecord* ChannelPolicyManager::find_channel(util::ChannelId id) const {
  const auto it = channels_.find(id);
  return it == channels_.end() ? nullptr : &it->second;
}

void ChannelPolicyManager::touch_channel(core::ChannelRecord& channel,
                                         util::SimTime now) {
  // "Whenever a channel is modified, all its attributes' last update times
  // are updated to the current time."
  core::AttributeSet touched;
  for (core::Attribute a : channel.attributes.items()) {
    a.utime = now;
    touched.add(std::move(a));
  }
  channel.attributes = std::move(touched);
}

void ChannelPolicyManager::rebuild_attribute_list(const core::ChannelRecord* touched) {
  // Collate unique (name, value) pairs across all channels; an entry's utime
  // is the newest utime among the channel attributes it represents. Entries
  // belonging only to a just-removed channel are kept implicitly through the
  // `touched` record so their staleness propagates once.
  std::vector<core::Attribute> collated;

  const auto merge = [&](const core::Attribute& a) {
    for (core::Attribute& existing : collated) {
      if (existing.name == a.name && existing.value == a.value) {
        if (a.utime != util::kNullTime &&
            (existing.utime == util::kNullTime || a.utime > existing.utime)) {
          existing.utime = a.utime;
        }
        return;
      }
    }
    core::Attribute entry;
    entry.name = a.name;
    entry.value = a.value;
    entry.utime = a.utime;
    collated.push_back(std::move(entry));
  };

  for (const auto& [id, channel] : channels_) {
    for (const core::Attribute& a : channel.attributes.items()) merge(a);
  }
  if (touched != nullptr) {
    for (const core::Attribute& a : touched->attributes.items()) merge(a);
  }
  attr_list_ = core::AttributeSet(std::move(collated));
}

void ChannelPolicyManager::push_updates() {
  const auto list = channel_list();
  for (const auto& sink : channel_list_sinks_) sink(list);
  for (const auto& sink : attribute_list_sinks_) sink(attr_list_);
}

}  // namespace p2pdrm::services
