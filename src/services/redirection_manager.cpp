#include "services/redirection_manager.h"

namespace p2pdrm::services {

void RedirectionManager::register_domain(std::uint32_t domain, ManagerCoordinates um) {
  Domain& d = domains_[domain];
  for (Instance& existing : d.instances) {
    if (existing.coords.addr == um.addr) {
      existing.coords = std::move(um);  // re-registration refreshes the key
      existing.healthy = true;
      return;
    }
  }
  d.instances.push_back(Instance{std::move(um), true});
}

void RedirectionManager::assign_user(const std::string& email, std::uint32_t domain) {
  user_domain_[email] = domain;
}

void RedirectionManager::set_channel_policy_manager(ManagerCoordinates cpm) {
  cpm_ = std::move(cpm);
}

void RedirectionManager::set_instance_health(std::uint32_t domain, util::NetAddr addr,
                                             bool healthy) {
  const auto it = domains_.find(domain);
  if (it == domains_.end()) return;
  for (Instance& instance : it->second.instances) {
    if (instance.coords.addr == addr) instance.healthy = healthy;
  }
}

RedirectResponse RedirectionManager::handle_lookup(const RedirectRequest& req) const {
  RedirectResponse resp;
  const auto user_it = user_domain_.find(req.email);
  if (user_it == user_domain_.end()) return resp;
  const auto dom_it = domains_.find(user_it->second);
  if (dom_it == domains_.end() || dom_it->second.instances.empty()) return resp;

  // Round-robin over healthy instances; with the whole farm down, hand out
  // the primary anyway (the client's retries will discover the outage).
  const Domain& d = dom_it->second;
  const Instance* pick = &d.instances[0];
  for (std::size_t i = 0; i < d.instances.size(); ++i) {
    const Instance& candidate = d.instances[(d.cursor + i) % d.instances.size()];
    if (candidate.healthy) {
      pick = &candidate;
      break;
    }
  }
  d.cursor = (d.cursor + 1) % d.instances.size();

  resp.found = true;
  resp.domain = user_it->second;
  resp.user_manager = pick->coords;
  resp.channel_policy_manager = cpm_;
  return resp;
}

}  // namespace p2pdrm::services
