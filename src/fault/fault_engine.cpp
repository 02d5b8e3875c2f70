#include "fault/fault_engine.h"

#include <algorithm>

namespace p2pdrm::fault {

namespace {

/// What a farm-instance fault verb does to its target.
net::FarmFault farm_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRestartUm:
    case FaultKind::kRestartCm:
      return net::FarmFault::kRestart;
    case FaultKind::kWipeState:
      return net::FarmFault::kWipe;
    case FaultKind::kCrashUnsynced:
      return net::FarmFault::kCrashUnsynced;
    default:
      return net::FarmFault::kCrash;
  }
}

}  // namespace

FaultEngine::FaultEngine(net::Deployment& deployment, FaultPlan plan,
                         FaultEngineConfig config)
    : dep_(deployment),
      plan_(std::move(plan)),
      config_(std::move(config)),
      rng_(config_.seed) {}

FaultEngine::~FaultEngine() { dep_.network().remove_interceptor(this); }

void FaultEngine::arm() {
  if (armed_) return;
  armed_ = true;
  dep_.network().add_interceptor(this);
  const util::SimTime now = dep_.now();
  for (const FaultEvent& ev : plan_.events()) {
    // Absolute plan times; anything already in the past fires immediately.
    const util::SimTime delay = ev.at > now ? ev.at - now : 0;
    dep_.post(delay, [this, ev] { apply(ev); });
  }
}

void FaultEngine::note(const FaultEvent& ev, const std::string& detail) {
  std::lock_guard<std::mutex> lk(mu_);
  log_.push_back("t=" + util::format_time(dep_.now()) + " " + ev.to_string() +
                 detail);
}

void FaultEngine::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kCrashUm:
    case FaultKind::kRestartUm:
    case FaultKind::kCrashCm:
    case FaultKind::kRestartCm:
    case FaultKind::kWipeState:
    case FaultKind::kCrashUnsynced: {
      const net::FarmRef farm = ev.farm == FarmKind::kCm
                                    ? net::FarmRef::channel(ev.partition)
                                    : net::FarmRef::um();
      if (ev.instance >= dep_.farm_size(farm)) {
        note(ev, "  # ignored: no such instance");
        return;
      }
      dep_.farm_fault(farm, ev.instance, farm_fault(ev.kind));
      note(ev);
      return;
    }
    case FaultKind::kPartition: {
      std::unique_lock<std::mutex> lk(mu_);
      partitions_.push_back({ev.a, ev.b, dep_.now() + ev.duration});
      lk.unlock();
      note(ev);
      return;
    }
    case FaultKind::kLossBurst: {
      std::unique_lock<std::mutex> lk(mu_);
      losses_.push_back({ev.a, ev.rate, dep_.now() + ev.duration});
      lk.unlock();
      note(ev);
      return;
    }
    case FaultKind::kLatencySpike: {
      std::unique_lock<std::mutex> lk(mu_);
      delays_.push_back({ev.a, ev.delay, dep_.now() + ev.duration});
      lk.unlock();
      note(ev);
      return;
    }
    case FaultKind::kChurnStorm:
      churn(ev);
      return;
    case FaultKind::kClockSkew:
      dep_.network().set_clock_skew(ev.node, ev.delay);
      note(ev);
      return;
    case FaultKind::kFlashCrowd:
      flash_crowd(ev);
      return;
    case FaultKind::kReplicationLag:
      if (!dep_.durable()) {
        note(ev, "  # ignored: durability off");
        return;
      }
      dep_.set_replication_interval(ev.delay);
      note(ev);
      return;
  }
}

bool FaultEngine::spawn_arrival(util::ChannelId channel) {
  const std::uint64_t serial = churn_serial_++;
  const std::string email =
      config_.arrival_email_prefix + std::to_string(serial) + "@fault";
  const std::string password = "storm-" + std::to_string(serial);
  if (!dep_.add_user(email, password)) return false;  // duplicate storm serial
  const geo::RegionId region =
      config_.arrival_region.value_or(dep_.geo().region_at(static_cast<int>(
          serial % static_cast<std::uint64_t>(dep_.geo().num_regions()))));
  net::AsyncClient* cp = &dep_.add_client(email, password, region);
  net::Deployment* dep = &dep_;
  const bool announce = config_.arrivals_announce;
  cp->login([cp, dep, announce, channel](core::DrmError err) {
    if (err != core::DrmError::kOk) return;
    cp->switch_channel(channel, [cp, dep, announce](core::DrmError err2) {
      if (err2 != core::DrmError::kOk) return;
      if (announce) dep->announce(*cp);
      cp->enable_auto_renewal();
    });
  });
  return true;
}

void FaultEngine::flash_crowd(const FaultEvent& ev) {
  // A stampede of brand-new viewers: each arrival dials in at a uniformly
  // random offset inside the ramp (deterministic — the engine's own DRBG),
  // so the login wave hits the farm as a sustained burst rather than one
  // synchronized packet storm.
  for (std::size_t i = 0; i < ev.arrivals; ++i) {
    util::SimTime offset = 0;
    if (ev.duration > 0) {
      std::lock_guard<std::mutex> lk(mu_);
      offset = static_cast<util::SimTime>(rng_.uniform_real() *
                                          static_cast<double>(ev.duration));
    }
    dep_.post(offset, [this, channel = ev.channel] {
      if (spawn_arrival(channel)) ++flash_crowd_arrivals_;
    });
  }
  note(ev, "  # spawning=" + std::to_string(ev.arrivals) + " over " +
               format_duration(ev.duration));
}

void FaultEngine::churn(const FaultEvent& ev) {
  // Departures: ungraceful crashes of the longest-attached clients on the
  // channel (vector order = attach order), nothing told to the tracker.
  std::size_t killed = 0;
  for (const std::unique_ptr<net::AsyncClient>& client : dep_.clients()) {
    if (killed >= ev.departures) break;
    if (client->departed() || !client->channel_ticket()) continue;
    if (client->channel_ticket()->ticket.channel_id != ev.channel) continue;
    dep_.crash_client(*client);
    ++killed;
    ++churn_departures_;
  }

  // Arrivals: brand-new viewers signing up mid-storm, spread across the geo
  // plan's regions. With client_resilience on they weather whatever other
  // faults are active when they first dial in.
  for (std::size_t i = 0; i < ev.arrivals; ++i) {
    if (spawn_arrival(ev.channel)) ++churn_arrivals_;
  }
  note(ev, "  # killed=" + std::to_string(killed) +
               " spawned=" + std::to_string(ev.arrivals));
}

net::SendInterceptor::Verdict FaultEngine::on_send(const net::SendContext& ctx) {
  const util::NetAddr from_addr = ctx.from_addr;
  const util::NetAddr to_addr = ctx.to_addr;
  const util::SimTime now = ctx.now;
  Verdict verdict;
  std::lock_guard<std::mutex> lk(mu_);
  const auto expired = [now](const auto& rule) { return rule.until <= now; };
  std::erase_if(partitions_, expired);
  std::erase_if(losses_, expired);
  std::erase_if(delays_, expired);

  for (const PartitionRule& rule : partitions_) {
    const bool ab = rule.a.contains(from_addr) && rule.b.contains(to_addr);
    const bool ba = rule.b.contains(from_addr) && rule.a.contains(to_addr);
    if (ab || ba) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      verdict.drop = true;
      return verdict;
    }
  }
  for (const LossRule& rule : losses_) {
    if (!rule.scope.contains(from_addr) && !rule.scope.contains(to_addr)) continue;
    if (rng_.chance(rule.rate)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      verdict.drop = true;
      return verdict;
    }
  }
  for (const DelayRule& rule : delays_) {
    if (rule.scope.contains(from_addr) || rule.scope.contains(to_addr)) {
      verdict.extra_delay += rule.extra;
    }
  }
  if (verdict.extra_delay > 0) delayed_.fetch_add(1, std::memory_order_relaxed);
  return verdict;
}

}  // namespace p2pdrm::fault
