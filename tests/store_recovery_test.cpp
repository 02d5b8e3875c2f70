// Durable deployment recovery: crash-at-worst-moment schedules over the
// wire. The §IV-C/D single-session rule survives torn-tail crashes when
// fresh-issue entries are written through; the mirror tests demonstrate
// the divergence (dual admission) that exists without replication — the
// gap the store subsystem closes.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "client_ops.h"
#include "services/channel_manager.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::Bytes;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;

DeploymentConfig durable_config() {
  DeploymentConfig cfg;
  cfg.seed = 4242;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.processing.light = 1 * kMillisecond;
  cfg.processing.heavy = 8 * kMillisecond;
  cfg.um_instances = 2;
  cfg.cm_instances = 2;
  // Short ticket lifetimes keep the §IV-D renewal window (±renewal_window
  // around expiry) inside a few simulated minutes.
  cfg.cm.ticket_lifetime = 4 * kMinute;
  cfg.cm.renewal_window = 3 * kMinute;
  cfg.durability.enabled = true;
  cfg.durability.replication_interval = 500 * kMillisecond;
  return cfg;
}

class StoreRecoveryTest : public ::testing::Test {
 protected:
  explicit StoreRecoveryTest(DeploymentConfig cfg = durable_config()) : d_(cfg) {
    d_.add_user("mig@example.com", "pw-m");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "news", region_);
    d_.start_channel_server(1);
  }

  /// login + switch_channel(1); clients are non-resilient by default, so a
  /// refused renewal stays refused instead of escalating to re-login.
  std::optional<DrmError> join(AsyncClient& c) {
    const std::optional<DrmError> err = login(d_, c);
    if (err != DrmError::kOk) return err;
    return switch_to(d_, c, 1);
  }

  Deployment d_;
  geo::RegionId region_ = 0;
};

TEST_F(StoreRecoveryTest, WriteThroughPreventsDualAdmissionAfterWorstMomentCrash) {
  // Device A views; the account migrates to device B via the survivor
  // while A's home instance is down; the recovered instance must still
  // refuse A's renewal (the fresh-issue witness was written through before
  // B's admission reply left the farm).
  AsyncClient& dev_a = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(dev_a), DrmError::kOk);

  d_.crash_cm_instance(0, 0);
  AsyncClient& dev_b = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(dev_b), DrmError::kOk);  // admitted by the survivor

  // Worst moment: the survivor crashes right after B's reply, tearing its
  // journal tail. The fresh-issue entry was fsynced in the handler, so it
  // survives recovery.
  d_.crash_cm_unsynced(0, 1);
  d_.restart_cm_instance(0, 1);
  d_.run_for(2 * kSecond);
  d_.restart_cm_instance(0, 0);
  d_.run_for(2 * kSecond);  // anti-entropy: B's entry reaches instance 0

  ASSERT_TRUE(dev_a.channel_ticket().has_value());
  d_.run_until(dev_a.channel_ticket()->ticket.expiry_time - kMinute);
  EXPECT_EQ(renew(d_, dev_a),
            DrmError::kRenewalRefused);  // zero dual admissions
  EXPECT_EQ(renew(d_, dev_b), DrmError::kOk);
}

class NoReplicationTest : public StoreRecoveryTest {
 protected:
  static DeploymentConfig config() {
    DeploymentConfig cfg = durable_config();
    cfg.durability.sync_fresh_issues = false;  // admission witness is async
    cfg.durability.replication_interval = 0;   // and never gossiped
    // One UM instance: without write-through or gossip, account provisions
    // would otherwise be visible on only one of the two UM replicas, and
    // this test is about the CM viewing log, not the user directory.
    cfg.um_instances = 1;
    return cfg;
  }
  NoReplicationTest() : StoreRecoveryTest(config()) {}
};

TEST_F(NoReplicationTest, WorstMomentCrashWithoutWriteThroughDualAdmits) {
  // The divergence the tentpole exists to close: with the fresh-issue
  // entry staged asynchronously and no replication, a crash right after
  // B's admission erases the only witness — the stale device renews
  // successfully while B still holds a live ticket. Dual admission.
  AsyncClient& dev_a = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(dev_a), DrmError::kOk);
  d_.cm_store(0, 0)->sync();  // A's own entry is durable; only B's is at risk

  d_.crash_cm_instance(0, 0);
  AsyncClient& dev_b = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(dev_b), DrmError::kOk);
  EXPECT_GT(d_.cm_store(0, 1)->unsynced_ops(), 0u);  // staged, not durable

  d_.crash_cm_unsynced(0, 1);  // tears B's entry in half
  d_.restart_cm_instance(0, 1);
  d_.run_for(kSecond);
  d_.restart_cm_instance(0, 0);
  d_.run_for(kSecond);

  // The torn tail was detected and discarded during replay.
  const obs::Counter* corrupt = d_.registry().find_counter("store.replay.corrupt");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_GE(corrupt->value(), 1u);

  // The farm has no trace of B's admission: the stale device is readmitted
  // while B's ticket is still live.
  ASSERT_TRUE(dev_a.channel_ticket().has_value());
  d_.run_until(dev_a.channel_ticket()->ticket.expiry_time - kMinute);
  EXPECT_EQ(renew(d_, dev_a), DrmError::kOk);
  ASSERT_TRUE(dev_b.channel_ticket().has_value());
  EXPECT_GT(dev_b.channel_ticket()->ticket.expiry_time, d_.now());

  const util::UserIN user = dev_a.user_ticket()->ticket.user_in;
  const services::ViewingLog::Entry* latest = d_.cm_viewing_log(0, 0)->latest(user, 1);
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->addr, dev_a.config().addr);  // B's witness is gone forever
}

TEST_F(StoreRecoveryTest, RestartRecoversViewingLogByteIdentical) {
  AsyncClient& viewer = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(viewer), DrmError::kOk);
  d_.replicate_now();  // fsync + pairwise convergence

  const Bytes before = d_.cm_viewing_log(0, 0)->encode();
  ASSERT_FALSE(before.empty());
  // Converged replicas encode to identical bytes (deterministic form).
  EXPECT_EQ(d_.cm_viewing_log(0, 1)->encode(), before);

  d_.crash_cm_instance(0, 0);
  d_.restart_cm_instance(0, 0);
  d_.run_for(kSecond);
  EXPECT_EQ(d_.cm_viewing_log(0, 0)->encode(), before);  // replay is deterministic
}

TEST_F(StoreRecoveryTest, OutageEraSignupSurvivesViaAntiEntropy) {
  // A user provisioned while UM instance 0 is down lands on the survivor
  // (write-through); the restarted instance learns it by anti-entropy.
  d_.crash_um_instance(0);
  ASSERT_TRUE(d_.add_user("late@example.com", "pw-late"));
  AsyncClient& late = d_.add_client("late@example.com", "pw-late", region_);
  EXPECT_EQ(login(d_, late), DrmError::kOk);

  d_.restart_um_instance(0);
  d_.run_for(kSecond);
  ASSERT_NE(d_.um_directory(0), nullptr);
  EXPECT_EQ(d_.um_directory(0)->users.count("late@example.com"), 1u);
  EXPECT_EQ(d_.um_store(0)->watermarks(), d_.um_store(1)->watermarks());
}

TEST_F(StoreRecoveryTest, AsyncAuditEntriesDurableWithinOneReplicationInterval) {
  // The loss bound from the other side: an async (renewal) entry that has
  // been staged for longer than the replication interval cannot be lost —
  // the ticker fsyncs it. Crashing after one full interval loses nothing.
  AsyncClient& viewer = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(viewer), DrmError::kOk);
  ASSERT_TRUE(viewer.channel_ticket().has_value());
  d_.run_until(viewer.channel_ticket()->ticket.expiry_time - kMinute);
  ASSERT_EQ(renew(d_, viewer), DrmError::kOk);

  d_.run_for(2 * 500 * kMillisecond + 100 * kMillisecond);  // > one interval
  EXPECT_EQ(d_.cm_store(0, 0)->unsynced_ops(), 0u);

  d_.crash_cm_unsynced(0, 0);
  const obs::Counter* lost = d_.registry().find_counter("store.lost_records");
  EXPECT_TRUE(lost == nullptr || lost->value() == 0u);

  d_.restart_cm_instance(0, 0);
  d_.run_for(kSecond);
  bool renewal_survived = false;
  for (const services::ViewingLog::Entry& e :
       d_.cm_viewing_log(0, 0)->audit_trail()) {
    if (e.renewal) renewal_survived = true;
  }
  EXPECT_TRUE(renewal_survived);
}

class SlowReplayTest : public StoreRecoveryTest {
 protected:
  static DeploymentConfig config() {
    DeploymentConfig cfg = durable_config();
    cfg.durability.replay_cost_per_record = kSecond;
    return cfg;
  }
  SlowReplayTest() : StoreRecoveryTest(config()) {}

  /// Restart, crash inside the replay window, restart again: the first
  /// recovery's window closing must not re-attach the node while the second
  /// replay is still running. `store` holds every op (no snapshot), so the
  /// window is one second per op.
  void expect_only_latest_window_attaches(util::NodeId node, store::FarmStore& store,
                                          const std::function<void()>& crash,
                                          const std::function<void()>& restart) {
    std::uint64_t ops = 0;
    for (const auto& [origin, watermark] : store.watermarks()) ops += watermark;
    ASSERT_GT(ops, 0u);
    const util::SimTime window = static_cast<util::SimTime>(ops) * kSecond;

    crash();
    restart();  // first window: [0, w)
    d_.run_for(window / 2);
    crash();
    restart();  // second window: [w/2, 3w/2)
    EXPECT_FALSE(d_.network().attached(node));
    d_.run_for(window * 3 / 4);  // past the first window only
    EXPECT_FALSE(d_.network().attached(node));
    d_.run_for(window / 2);  // past the second window
    EXPECT_TRUE(d_.network().attached(node));
  }
};

TEST_F(SlowReplayTest, StaleRecoveryDoesNotAttachUmInstanceEarly) {
  for (int i = 0; i < 4; ++i) {
    d_.add_user("u" + std::to_string(i) + "@example.com", "pw");
  }
  expect_only_latest_window_attaches(
      Deployment::kUmInstanceBase + 1, *d_.um_store(1),
      [this] { d_.crash_um_instance(1); }, [this] { d_.restart_um_instance(1); });
}

TEST_F(SlowReplayTest, StaleRecoveryDoesNotAttachCmInstanceEarly) {
  AsyncClient& viewer = d_.add_client("mig@example.com", "pw-m", region_);
  ASSERT_EQ(join(viewer), DrmError::kOk);
  expect_only_latest_window_attaches(
      Deployment::kCmInstanceBase + 1, *d_.cm_store(0, 1),
      [this] { d_.crash_cm_instance(0, 1); },
      [this] { d_.restart_cm_instance(0, 1); });
}

}  // namespace
}  // namespace p2pdrm::net
