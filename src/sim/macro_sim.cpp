#include "sim/macro_sim.h"

#include <cstdio>
#include <stdexcept>

#include "sim/macro_engine.h"

namespace p2pdrm::sim {

std::string hourly_histogram_name(core::Round r, std::size_t hour) {
  char hour_tag[16];
  std::snprintf(hour_tag, sizeof(hour_tag), ".hour%03zu", hour);
  return "macro.round." + std::string(to_string(r)) + hour_tag;
}

std::string split_histogram_name(core::Round r, bool peak) {
  return "macro.round." + std::string(to_string(r)) +
         (peak ? ".peak" : ".offpeak");
}

std::string round_histogram_name(core::Round r) {
  return "macro.round." + std::string(to_string(r));
}

std::vector<double> RoundTrace::hourly_median() const {
  std::vector<double> out;
  out.reserve(hourly.size());
  for (const analysis::Reservoir& r : hourly) {
    out.push_back(r.empty() ? 0.0 : r.median());
  }
  return out;
}

std::vector<std::string> MacroSimConfig::validate() const {
  std::vector<std::string> errors;
  const auto fail = [&errors](const char* field, const char* why) {
    errors.push_back(std::string(field) + ": " + why);
  };

  if (days <= 0) fail("days", "must be positive");
  if (peak_concurrent <= 0) fail("peak_concurrent", "must be positive");
  if (num_channels == 0) fail("num_channels", "must be nonzero");
  if (zipf_exponent < 0) fail("zipf_exponent", "must be nonnegative");

  if (session.median_duration <= 0) {
    fail("session.median_duration", "must be positive");
  }
  if (session.duration_sigma < 0) {
    fail("session.duration_sigma", "must be nonnegative");
  }
  if (session.mean_switch_interval <= 0) {
    fail("session.mean_switch_interval", "must be positive");
  }
  if (session.min_duration < 0) {
    fail("session.min_duration", "must be nonnegative");
  }

  if (user_manager_servers == 0) {
    fail("user_manager_servers", "farm needs at least one server");
  }
  if (channel_manager_servers == 0) {
    fail("channel_manager_servers", "farm needs at least one server");
  }
  if (user_ticket_lifetime <= 0) {
    fail("user_ticket_lifetime", "must be positive");
  }
  if (channel_ticket_lifetime <= 0) {
    fail("channel_ticket_lifetime", "must be positive");
  }

  if (costs.dispersion < 0) {
    fail("costs.dispersion", "negative dispersion is meaningless");
  }
  if (client_costs.dispersion < 0) {
    fail("client_costs.dispersion", "negative dispersion is meaningless");
  }

  if (join_base_reject < 0 || join_base_reject > 1) {
    fail("join_base_reject", "must be a probability in [0, 1]");
  }
  if (join_load_sensitivity < 0) {
    fail("join_load_sensitivity", "must be nonnegative");
  }
  if (max_join_attempts == 0) fail("max_join_attempts", "must be nonzero");

  if (login_admission_max_wait < 0) {
    fail("login_admission_max_wait", "must be nonnegative (0 disables)");
  }
  if (login_admission_max_wait > 0 && busy_retry_after <= 0) {
    fail("busy_retry_after", "must be positive when admission control is on");
  }

  if (reservoir_per_hour == 0) fail("reservoir_per_hour", "must be nonzero");
  if (reservoir_cdf == 0) fail("reservoir_cdf", "must be nonzero");

  if ((obs.timeseries != nullptr || obs.slo != nullptr) &&
      obs.scrape_interval <= 0) {
    fail("obs.scrape_interval", "must be positive when a consumer is attached");
  }

  if (key_rotation.enabled) {
    if (key_rotation.interval <= 0) {
      fail("key_rotation.interval", "must be positive");
    }
    if (key_rotation.fanout == 0) {
      fail("key_rotation.fanout", "zero fanout cannot deliver keys");
    }
    if (key_rotation.sampled_peers == 0) {
      fail("key_rotation.sampled_peers", "must sample at least one peer");
    }
    if (key_rotation.relay_cost < 0) {
      fail("key_rotation.relay_cost", "must be nonnegative");
    }
    if (key_rotation.announce_lead < 0) {
      fail("key_rotation.announce_lead", "must be nonnegative");
    }
  }

  for (std::size_t i = 0; i < flash_crowds.size(); ++i) {
    if (flash_crowds[i].channel >= num_channels) {
      fail("flash_crowds.channel", "must name an existing channel");
    }
    if (flash_crowds[i].ramp <= 0) {
      fail("flash_crowds.ramp", "must be positive");
    }
  }

  if (shards == 0) fail("shards", "must be nonzero");
  if (shards > num_channels) {
    fail("shards", "cannot exceed num_channels (a shard needs channels)");
  }
  if (shard_sync_interval <= 0) {
    fail("shard_sync_interval", "must be positive");
  }

  return errors;
}

MacroSimConfig MacroSimConfig::validated() const {
  const std::vector<std::string> errors = validate();
  if (!errors.empty()) {
    std::string message = "MacroSimConfig";
    for (const std::string& e : errors) message += ": " + e;
    throw std::invalid_argument(message);
  }
  return *this;
}

MacroSimResult run_macro_sim(const MacroSimConfig& config) {
  return MacroEngine(config).run();
}

}  // namespace p2pdrm::sim
