// Tests for the snapshot-based concurrent controller: versioned RIB
// snapshots (bit-stability, structural sharing), snapshot-backed analytics
// parity, deterministic batched command flushing, priority-tier execution
// on the worker pool, deferred app removal/pausing, and an end-to-end
// pipelined master run. See docs/controller_concurrency.md.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "apps/monitoring.h"
#include "apps/remote_scheduler.h"
#include "controller/rib_snapshot.h"
#include "controller/rib_view.h"
#include "controller/shard_core.h"
#include "controller/task_manager.h"
#include "scenario/testbed.h"

namespace flexran::ctrl {
namespace {

using scenario::Testbed;

// ------------------------------------------------------------ RibSnapshot --

Rib make_rib() {
  Rib rib;
  for (AgentId id = 1; id <= 3; ++id) {
    AgentNode& agent = rib.agent(id);
    agent.id = id;
    agent.enb_id = id;
    auto& cell = agent.cells[id];
    cell.config.bandwidth_mhz = 10.0;  // 50 PRBs
    cell.stats.dl_prbs_in_use = 10 * static_cast<int>(id);
    cell.stats.active_ues = 2;
    for (lte::Rnti rnti = 70; rnti < 72; ++rnti) {
      auto& ue = cell.ues[rnti];
      ue.rnti = rnti;
      ue.stats.wb_cqi = 9;
      ue.stats.dl_bytes_delivered = 1000 * id;
      ue.cqi_avg.add(9.0);
    }
  }
  return rib;
}

TEST(RibSnapshot, BitStableWhileUpdaterMutates) {
  Rib rib = make_rib();
  SnapshotStore store;
  auto v1 = store.publish(rib, {1, 2, 3}, /*structure_changed=*/true);
  ASSERT_EQ(v1->version(), 1u);
  ASSERT_EQ(v1->agent_count(), 3u);

  // The updater keeps mutating the live tree...
  rib.agent(1).cells[1].ues[70].stats.wb_cqi = 2;
  rib.agent(1).cells[1].ues[70].stats.dl_bytes_delivered = 999999;
  rib.agent(2).cells[2].ues.erase(70);
  rib.remove_agent(3);
  rib.agent(1).last_subframe = 4242;

  // ...and the held snapshot does not move.
  EXPECT_EQ(v1->find_ue(1, 70)->stats.wb_cqi, 9);
  EXPECT_EQ(v1->find_ue(1, 70)->stats.dl_bytes_delivered, 1000u);
  EXPECT_NE(v1->find_ue(2, 70), nullptr);
  EXPECT_NE(v1->find_agent(3), nullptr);
  EXPECT_EQ(v1->find_agent(1)->last_subframe, 0);
  EXPECT_EQ(v1->ue_count(), 6u);

  // The next publish sees the mutations; the old version still does not.
  auto v2 = store.publish(rib, {1, 2}, /*structure_changed=*/true);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->find_ue(1, 70)->stats.wb_cqi, 2);
  EXPECT_EQ(v2->find_agent(3), nullptr);
  EXPECT_EQ(v1->find_ue(1, 70)->stats.wb_cqi, 9);
  EXPECT_EQ(v1->agent_count(), 3u);
}

TEST(RibSnapshot, SharesUnchangedSubtreesAndSkipsNoopPublishes) {
  Rib rib = make_rib();
  SnapshotStore store;
  auto v1 = store.publish(rib, {1, 2, 3}, true);

  // Nothing dirty: the same snapshot is re-published, version unchanged.
  auto same = store.publish(rib, {}, false);
  EXPECT_EQ(same.get(), v1.get());
  EXPECT_EQ(store.current()->version(), 1u);

  // Only agent 1 dirty: agents 2 and 3 are carried by the same nodes
  // (structural sharing), agent 1 is deep-copied.
  rib.agent(1).last_subframe = 100;
  auto v2 = store.publish(rib, {1}, false);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_NE(v2->agents().at(1).get(), v1->agents().at(1).get());
  EXPECT_EQ(v2->agents().at(2).get(), v1->agents().at(2).get());
  EXPECT_EQ(v2->agents().at(3).get(), v1->agents().at(3).get());
  EXPECT_EQ(v2->find_agent(1)->last_subframe, 100);
}

TEST(RibSnapshot, CurrentIsConsistentUnderConcurrentPublish) {
  Rib rib = make_rib();
  SnapshotStore store;
  store.publish(rib, {1, 2, 3}, true);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> last_seen{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto snapshot = store.current();
      // Monotonic versions and internally consistent trees.
      ASSERT_GE(snapshot->version(), last_seen.load());
      last_seen.store(snapshot->version());
      ASSERT_EQ(snapshot->agent_count(), 3u);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    rib.agent(1).last_subframe = i;
    store.publish(rib, {1}, false);
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(store.current()->version(), 2001u);
}

// ------------------------------------------------- snapshot-backed views ---

TEST(RibViewSnapshot, AnalyticsOverSnapshotMatchesLiveRib) {
  // Snapshots captured from the live RIB yield the rates, summaries and
  // load ranking its content implies (make_rib: agent i has one cell i at
  // 10*i of 50 PRBs, two UEs with 1000*i delivered bytes, 2 active UEs).
  Rib rib = make_rib();
  RibAnalytics analytics;
  analytics.sample(*RibSnapshot::capture(rib), 0);

  for (AgentId id = 1; id <= 3; ++id) {
    for (lte::Rnti rnti = 70; rnti < 72; ++rnti) {
      rib.agent(id).cells[id].ues[rnti].stats.dl_bytes_delivered += 125000;  // 1 Mb
    }
  }
  analytics.sample(*RibSnapshot::capture(rib), sim::from_seconds(1.0));

  for (AgentId id = 1; id <= 3; ++id) {
    for (lte::Rnti rnti = 70; rnti < 72; ++rnti) {
      EXPECT_DOUBLE_EQ(analytics.ue_dl_rate_mbps(id, rnti), 1.0);  // 1 Mb in 1 s
    }
    EXPECT_DOUBLE_EQ(analytics.cell_utilization(id, id), 0.2 * id);
  }

  const auto summaries = summarize_ues(*RibSnapshot::capture(rib));
  ASSERT_EQ(summaries.size(), 6u);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const AgentId id = static_cast<AgentId>(1 + i / 2);
    EXPECT_EQ(summaries[i].agent, id);
    EXPECT_EQ(summaries[i].cell, id);
    EXPECT_EQ(summaries[i].rnti, static_cast<lte::Rnti>(70 + i % 2));
    EXPECT_EQ(summaries[i].dl_bytes_delivered, 1000u * id + 125000u);
  }
  // Equal loads (2 UEs each): the lowest agent id wins.
  EXPECT_EQ(least_loaded_agent(*RibSnapshot::capture(rib)), std::optional<AgentId>(1));
}

// ------------------------------------------------------ batched commands ---

/// Records every command that reaches the wire, in order.
class RecordingNorthbound : public NorthboundApi {
 public:
  explicit RecordingNorthbound(SnapshotStore& store) : store_(&store) {}

  std::vector<std::string> log;

  std::shared_ptr<const RibSnapshot> rib_snapshot() const override { return store_->current(); }
  sim::TimeUs now() const override { return 0; }
  std::int64_t agent_subframe(AgentId) const override { return 0; }
  util::Status send_dl_mac_config(AgentId, const proto::DlMacConfig&) override { return {}; }
  util::Status send_ul_mac_config(AgentId, const proto::UlMacConfig&) override { return {}; }
  util::Status send_handover(AgentId, const proto::HandoverCommand&) override { return {}; }
  util::Status send_abs_config(AgentId, const proto::AbsConfig&) override { return {}; }
  util::Status send_carrier_restriction(AgentId, const proto::CarrierRestriction&) override {
    return {};
  }
  util::Status send_drx_config(AgentId, const proto::DrxConfig&) override { return {}; }
  util::Status send_scell_command(AgentId, const proto::ScellCommand&) override { return {}; }
  util::Status request_stats(AgentId, const proto::StatsRequest&) override { return {}; }
  util::Status subscribe_events(AgentId, std::vector<proto::EventType>, bool) override {
    return {};
  }
  util::Status push_vsf(AgentId, const std::string&, const std::string&,
                        const std::string&) override {
    return {};
  }
  util::Status send_policy(AgentId, const std::string& yaml) override {
    log.push_back(yaml);
    return {};
  }

 private:
  SnapshotStore* store_;
};

/// Issues tagged commands each cycle, optionally after a delay (to scramble
/// worker completion order).
class ChattyApp : public App {
 public:
  ChattyApp(std::string name, int priority, std::chrono::microseconds delay)
      : name_(std::move(name)), priority_(priority), delay_(delay) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t cycle, NorthboundApi& api) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    (void)api.send_policy(1, name_ + "#" + std::to_string(cycle) + "/a");
    (void)api.send_policy(1, name_ + "#" + std::to_string(cycle) + "/b");
  }

 private:
  std::string name_;
  int priority_;
  std::chrono::microseconds delay_;
};

std::vector<std::string> run_chatty_cycles(int workers, int cycles) {
  Rib rib = make_rib();
  SnapshotStore store;
  RecordingNorthbound api(store);

  TaskManagerConfig config;
  config.real_time = false;
  config.workers = workers;
  TaskManager tm(config, [&](std::int64_t) {
    store.publish(rib, {1}, rib.agent_count() != store.current()->agent_count());
    return std::size_t{0};
  }, nullptr);
  tm.set_snapshot_source([&] { return store.current(); }, [] { return sim::TimeUs{0}; });

  // "slow" registers first within the time-critical tier but finishes last;
  // the flush order must not care.
  ChattyApp slow("slow", 1, std::chrono::microseconds(1500));
  ChattyApp fast("fast", 1, std::chrono::microseconds(0));
  ChattyApp late("late", 200, std::chrono::microseconds(0));
  tm.add_app(&slow, api);
  tm.add_app(&fast, api);
  tm.add_app(&late, api);
  for (int cycle = 0; cycle < cycles; ++cycle) tm.run_cycle(cycle, api);
  tm.quiesce();
  return api.log;
}

TEST(CommandBatch, FlushOrderIsDeterministicAcrossRunsAndWorkerCounts) {
  constexpr int kCycles = 6;
  const auto inline_log = run_chatty_cycles(/*workers=*/0, kCycles);
  ASSERT_EQ(inline_log.size(), 3u * 2u * kCycles);
  // Within a cycle: priority order, then registration order, then enqueue
  // order -- independent of which worker finished first.
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const auto base = static_cast<std::size_t>(cycle) * 6;
    const std::string tag = "#" + std::to_string(cycle);
    EXPECT_EQ(inline_log[base + 0], "slow" + tag + "/a");
    EXPECT_EQ(inline_log[base + 1], "slow" + tag + "/b");
    EXPECT_EQ(inline_log[base + 2], "fast" + tag + "/a");
    EXPECT_EQ(inline_log[base + 3], "fast" + tag + "/b");
    EXPECT_EQ(inline_log[base + 4], "late" + tag + "/a");
    EXPECT_EQ(inline_log[base + 5], "late" + tag + "/b");
  }
  // Parallel execution (2 and 4 workers) must produce the identical wire
  // sequence, run after run.
  EXPECT_EQ(run_chatty_cycles(/*workers=*/2, kCycles), inline_log);
  EXPECT_EQ(run_chatty_cycles(/*workers=*/4, kCycles), inline_log);
  EXPECT_EQ(run_chatty_cycles(/*workers=*/4, kCycles), inline_log);
}

TEST(CommandBatch, EnqueueValidatesAgainstPinnedSnapshot) {
  Rib rib = make_rib();
  SnapshotStore store;
  store.publish(rib, {1, 2, 3}, true);
  RecordingNorthbound api(store);
  BatchingNorthbound proxy(api);

  proxy.pin(store.current(), 0);
  EXPECT_TRUE(proxy.send_policy(1, "known").ok());
  auto unknown = proxy.send_policy(99, "unknown");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(proxy.queued(), 1u);
  EXPECT_TRUE(api.log.empty());  // nothing on the wire until flush
  EXPECT_EQ(proxy.flush(), 1u);
  ASSERT_EQ(api.log.size(), 1u);
  EXPECT_EQ(api.log[0], "known");

  // Unpinned: commands pass straight through.
  EXPECT_TRUE(proxy.send_policy(1, "direct").ok());
  EXPECT_EQ(api.log.size(), 2u);
}

// ------------------------------------------------------------ worker pool ---

class TierProbeApp : public App {
 public:
  TierProbeApp(std::string name, int priority, std::atomic<int>& finished_above,
               std::atomic<bool>& violated, bool is_high_tier)
      : name_(std::move(name)),
        priority_(priority),
        finished_above_(&finished_above),
        violated_(&violated),
        is_high_tier_(is_high_tier) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t, NorthboundApi&) override {
    if (is_high_tier_) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      finished_above_->fetch_add(1);
    } else if (finished_above_->load() != 2) {
      // A low-priority app started before the whole tier above completed.
      violated_->store(true);
    }
  }

 private:
  std::string name_;
  int priority_;
  std::atomic<int>* finished_above_;
  std::atomic<bool>* violated_;
  bool is_high_tier_;
};

TEST(TaskManagerPool, LowerTierWaitsForHigherTier) {
  Rib rib = make_rib();
  SnapshotStore store;
  RecordingNorthbound api(store);
  TaskManagerConfig config;
  config.real_time = false;
  config.workers = 4;
  TaskManager tm(config, [&](std::int64_t) {
    store.publish(rib, {1}, store.current()->agent_count() == 0);
    return std::size_t{0};
  }, nullptr);
  tm.set_snapshot_source([&] { return store.current(); }, [] { return sim::TimeUs{0}; });

  std::atomic<int> finished_above{0};
  std::atomic<bool> violated{false};
  TierProbeApp a("a", 1, finished_above, violated, true);
  TierProbeApp b("b", 1, finished_above, violated, true);
  TierProbeApp c("c", 200, finished_above, violated, false);
  TierProbeApp d("d", 200, finished_above, violated, false);
  tm.add_app(&a, api);
  tm.add_app(&b, api);
  tm.add_app(&c, api);
  tm.add_app(&d, api);

  for (int cycle = 0; cycle < 20; ++cycle) {
    finished_above.store(0);
    tm.run_cycle(cycle, api);
    tm.quiesce();  // one slot at a time so the per-cycle reset is race-free
  }
  EXPECT_FALSE(violated.load());
  // Per-app wall stats were recorded for every cycle.
  const auto stats = tm.app_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& stat : stats) EXPECT_EQ(stat.runs, 20u);
}

/// Removes a sibling app (and itself) mid-cycle; the seed mutated the app
/// vector during iteration (undefined behavior).
class SelfRemovingApp : public App {
 public:
  SelfRemovingApp(std::string name, TaskManager& tm, std::string victim)
      : name_(std::move(name)), tm_(&tm), victim_(std::move(victim)) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return 1; }
  void on_cycle(std::int64_t, NorthboundApi&) override {
    ++runs_;
    tm_->remove_app(victim_);
    tm_->remove_app(name_);
  }
  int runs() const { return runs_; }

 private:
  std::string name_;
  TaskManager* tm_;
  std::string victim_;
  int runs_ = 0;
};

class CountingApp : public App {
 public:
  CountingApp(std::string name, int priority) : name_(std::move(name)), priority_(priority) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t, NorthboundApi&) override { ++runs_; }
  int runs() const { return runs_; }

 private:
  std::string name_;
  int priority_;
  int runs_ = 0;
};

TEST(TaskManagerPool, RemoveDuringCycleIsDeferredToCycleBoundary) {
  SnapshotStore store;
  RecordingNorthbound api(store);
  TaskManager tm({.real_time = false}, nullptr, nullptr);

  SelfRemovingApp remover("remover", tm, "victim");
  CountingApp victim("victim", 300);  // scheduled after the remover
  tm.add_app(&remover, api);
  tm.add_app(&victim, api);
  ASSERT_EQ(tm.app_count(), 2u);

  // Cycle 0: the remover asks for both removals mid-cycle. The victim,
  // later in this cycle's schedule, must still run exactly once (the
  // working set is frozen at slot start), and both removals must land at
  // the cycle boundary instead of invalidating the iteration.
  tm.run_cycle(0, api);
  EXPECT_EQ(remover.runs(), 1);
  EXPECT_EQ(victim.runs(), 1);
  EXPECT_EQ(tm.app_count(), 0u);
  tm.run_cycle(1, api);
  EXPECT_EQ(remover.runs(), 1);
  EXPECT_EQ(victim.runs(), 1);
}

TEST(TaskManagerPool, RemoveWhileSlotInFlightWaitsForJoin) {
  Rib rib = make_rib();
  SnapshotStore store;
  RecordingNorthbound api(store);
  TaskManagerConfig config;
  config.real_time = false;
  config.workers = 2;
  TaskManager tm(config, [&](std::int64_t) {
    store.publish(rib, {1}, store.current()->agent_count() == 0);
    return std::size_t{0};
  }, nullptr);
  tm.set_snapshot_source([&] { return store.current(); }, [] { return sim::TimeUs{0}; });

  ChattyApp slow("slow", 1, std::chrono::microseconds(2000));
  tm.add_app(&slow, api);
  tm.run_cycle(0, api);  // dispatches the slot; workers are now running
  tm.remove_app("slow");  // in flight -> deferred, not torn out from under the worker
  EXPECT_EQ(tm.app_count(), 1u);
  tm.quiesce();  // joins, flushes, applies the deferral
  EXPECT_EQ(tm.app_count(), 0u);
  // Its final batch still made the wire.
  EXPECT_EQ(api.log.size(), 2u);
}

TEST(TaskManagerPool, PauseWhileRunningTakesEffectNextCycle) {
  SnapshotStore store;
  RecordingNorthbound api(store);
  TaskManager tm({.real_time = false}, nullptr, nullptr);
  CountingApp app("app", 10);
  tm.add_app(&app, api);
  tm.run_cycle(0, api);
  ASSERT_TRUE(tm.set_paused("app", true).ok());
  tm.run_cycle(1, api);
  EXPECT_EQ(app.runs(), 1);
  ASSERT_TRUE(tm.set_paused("app", false).ok());
  tm.run_cycle(2, api);
  EXPECT_EQ(app.runs(), 2);
}

// -------------------------------------------------------- end-to-end E2E ---

scenario::EnbSpec sched_spec(lte::EnbId id = 1) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  s.agent.dl_scheduler = "remote";
  return s;
}

TEST(PipelinedMaster, EndToEndParallelCyclesServeTraffic) {
  auto config = scenario::per_tti_master_config();
  config.task_manager.workers = 2;
  Testbed testbed(config);
  testbed.add_enb(sched_spec());

  apps::RemoteSchedulerConfig sched_config;
  // Pipelined dispatch flushes a cycle's decisions one cycle later; keep a
  // comfortable schedule-ahead margin so they still arrive in time.
  sched_config.schedule_ahead_sf = 4;
  auto* scheduler = static_cast<apps::RemoteSchedulerApp*>(
      testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>(sched_config)));
  auto* monitoring = static_cast<apps::MonitoringApp*>(
      testbed.master().add_app(std::make_unique<apps::MonitoringApp>(10)));

  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(12);
  profile.attach_after_ttis = 10;
  const auto rnti = testbed.add_ue(0, std::move(profile));
  // Keep the DL queue non-empty so the scheduler has per-TTI work.
  auto* dp = testbed.enb(0).data_plane.get();
  testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
      (void)testbed.epc().downlink(rnti, 60'000);
    }
  });

  testbed.run_ttis(500);
  testbed.master().quiesce();

  EXPECT_GT(scheduler->decisions_sent(), 100u);
  EXPECT_GT(testbed.master().commands_flushed(), 100u);
  EXPECT_GT(testbed.master().snapshot_version(), 100u);
  EXPECT_GT(testbed.master().snapshot_publish_us().count(), 400u);
  EXPECT_GE(monitoring->snapshots_taken(), 1);
  EXPECT_GT(testbed.metrics().total_bytes_all(lte::Direction::downlink), 100000u);
  ASSERT_NE(dp->ue(rnti), nullptr);
  EXPECT_TRUE(dp->ue(rnti)->connected());
  // Single-writer discipline held: per-app stats exist for both apps.
  const auto stats = testbed.master().task_manager().app_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "remote_scheduler");
}

}  // namespace
}  // namespace flexran::ctrl
