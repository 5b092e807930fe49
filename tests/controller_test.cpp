#include <gtest/gtest.h>

#include "apps/monitoring.h"
#include "controller/rib.h"
#include "controller/rib_view.h"
#include "controller/shard_core.h"
#include "controller/task_manager.h"
#include "net/sim_transport.h"
#include "scenario/testbed.h"

namespace flexran::ctrl {
namespace {

using scenario::Testbed;

stack::UeProfile cqi_ue(int cqi) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  // Give the hello / event-subscription handshake time to finish before the
  // UE performs RACH, so attach events are observable at the master.
  profile.attach_after_ttis = 10;
  return profile;
}

scenario::EnbSpec spec(lte::EnbId id = 1) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  return s;
}

// -------------------------------------------------------------------- RIB --

TEST(Rib, ForestStructureAndLookups) {
  Rib rib;
  AgentNode& agent = rib.agent(1);
  agent.enb_id = 10;
  auto& cell = agent.cells[100];
  auto& ue = cell.ues[70];
  ue.rnti = 70;

  EXPECT_NE(rib.find_agent(1), nullptr);
  EXPECT_EQ(rib.find_agent(2), nullptr);
  ASSERT_NE(rib.find_ue(1, 70), nullptr);
  EXPECT_EQ(rib.find_ue(1, 71), nullptr);
  EXPECT_EQ(rib.find_ue(2, 70), nullptr);
  EXPECT_EQ(rib.ue_count(), 1u);
  EXPECT_EQ(rib.agent_count(), 1u);

  UeNode* mutable_ue = rib.mutable_ue(1, 70);
  ASSERT_NE(mutable_ue, nullptr);
  mutable_ue->stats.wb_cqi = 9;
  EXPECT_EQ(rib.find_ue(1, 70)->stats.wb_cqi, 9);
}

TEST(Rib, ApproxBytesGrowsWithContent) {
  Rib rib;
  const auto empty = rib.approx_bytes();
  AgentNode& agent = rib.agent(1);
  for (lte::Rnti rnti = 1; rnti <= 16; ++rnti) {
    agent.cells[1].ues[rnti].rnti = rnti;
  }
  EXPECT_GT(rib.approx_bytes(), empty + 16 * sizeof(UeNode));
}

TEST(RibUpdater, UeFirstSeenInStatsIsMovedNotDuplicated) {
  // A stats report for an unknown RNTI files the UE under the agent's first
  // cell (a placeholder cell 0 while none is known). A later UeConfigReply
  // or ue_attach naming another cell must move that node there, not add a
  // second UeNode for the same RNTI.
  sim::Simulator sim;
  ShardCore master(sim, scenario::per_tti_master_config());
  auto link = net::make_sim_transport_pair(sim);
  const AgentId id = master.add_agent(*link.a);
  const auto deliver = [&](const std::vector<std::uint8_t>& wire) {
    ASSERT_TRUE(link.b->send(wire).ok());
    sim.run();
    master.run_cycle();
  };
  const auto report = [&](lte::Rnti rnti, std::uint8_t cqi) {
    proto::StatsReply reply;
    reply.ue_reports.emplace_back();
    reply.ue_reports.back().rnti = rnti;
    reply.ue_reports.back().wb_cqi = cqi;
    deliver(proto::pack(reply));
  };
  const auto cell_of = [&](lte::Rnti rnti) {
    std::vector<lte::CellId> cells;
    for (const auto& [cell_id, cell] : master.rib().find_agent(id)->cells) {
      if (cell.ues.contains(rnti)) cells.push_back(cell_id);
    }
    return cells;
  };

  // UeConfigReply path: no cell known yet, so the report lands in cell 0.
  report(70, 9);
  ASSERT_EQ(cell_of(70), std::vector<lte::CellId>{0});
  proto::UeConfigReply config;
  config.ues.emplace_back();
  config.ues.back().rnti = 70;
  config.ues.back().primary_cell = 2;
  deliver(proto::pack(config));
  EXPECT_EQ(cell_of(70), std::vector<lte::CellId>{2});
  EXPECT_EQ(master.rib().ue_count(), 1u);
  EXPECT_EQ(master.rib_snapshot()->ue_count(), 1u);
  const UeNode* ue = master.rib().find_ue(id, 70);
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(ue->config.primary_cell, 2u);
  EXPECT_EQ(ue->stats.wb_cqi, 9);  // the moved node keeps its stats

  // ue_attach path: the report lands in the first known cell (0), the
  // attach event names cell 3.
  report(71, 7);
  ASSERT_EQ(cell_of(71), std::vector<lte::CellId>{0});
  proto::EventNotification attach;
  attach.event = proto::EventType::ue_attach;
  attach.rnti = 71;
  attach.cell_id = 3;
  deliver(proto::pack(attach));
  EXPECT_EQ(cell_of(71), std::vector<lte::CellId>{3});
  EXPECT_EQ(master.rib().ue_count(), 2u);
  EXPECT_EQ(master.rib_snapshot()->ue_count(), 2u);
  ASSERT_NE(master.rib().find_ue(id, 71), nullptr);
  EXPECT_EQ(master.rib().find_ue(id, 71)->stats.wb_cqi, 7);
}

// ----------------------------------------------------------- Task manager --

class RecordingApp : public App {
 public:
  RecordingApp(std::string name, int priority, std::vector<std::string>& log)
      : name_(std::move(name)), priority_(priority), log_(&log) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t, NorthboundApi&) override { log_->push_back(name_); }
  void on_event(const Event& event, NorthboundApi&) override {
    log_->push_back(name_ + ":" + proto::to_string(event.notification.event));
  }

 private:
  std::string name_;
  int priority_;
  std::vector<std::string>* log_;
};

class NullNorthbound : public NorthboundApi {
 public:
  explicit NullNorthbound(Rib& rib) : rib_(&rib) {}
  std::shared_ptr<const RibSnapshot> rib_snapshot() const override {
    return RibSnapshot::capture(*rib_);
  }
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
  util::Status send_policy(AgentId, const std::string&) override { return {}; }

 private:
  Rib* rib_;
};

TEST(TaskManager, AppsRunInPriorityOrder) {
  Rib rib;
  NullNorthbound api(rib);
  std::vector<std::string> log;
  TaskManager tm({}, nullptr, nullptr);
  RecordingApp monitoring("monitoring", 200, log);
  RecordingApp scheduler("scheduler", 1, log);  // time critical -> first
  tm.add_app(&monitoring, api);
  tm.add_app(&scheduler, api);
  tm.run_cycle(0, api);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "scheduler");
  EXPECT_EQ(log[1], "monitoring");
}

TEST(TaskManager, PauseResumeRemove) {
  Rib rib;
  NullNorthbound api(rib);
  std::vector<std::string> log;
  TaskManager tm({}, nullptr, nullptr);
  RecordingApp app("app", 10, log);
  tm.add_app(&app, api);

  ASSERT_TRUE(tm.set_paused("app", true).ok());
  tm.run_cycle(0, api);
  EXPECT_TRUE(log.empty());
  ASSERT_TRUE(tm.set_paused("app", false).ok());
  tm.run_cycle(1, api);
  EXPECT_EQ(log.size(), 1u);
  tm.remove_app("app");
  tm.run_cycle(2, api);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_FALSE(tm.set_paused("ghost", true).ok());
}

TEST(TaskManager, RecordsSlotTimings) {
  Rib rib;
  NullNorthbound api(rib);
  int updates = 0;
  TaskManager tm({}, [&](std::int64_t) { return static_cast<std::size_t>(++updates); },
                 nullptr);
  for (int i = 0; i < 10; ++i) tm.run_cycle(i, api);
  EXPECT_EQ(tm.cycles_run(), 10);
  EXPECT_EQ(tm.updater_time_us().count(), 10u);
  EXPECT_EQ(tm.apps_time_us().count(), 10u);
  EXPECT_GT(tm.mean_idle_fraction(), 0.5);  // nothing heavy ran
}

// ------------------------------------------------------------ master E2E ---

TEST(MasterEndToEnd, PeriodicStatsPopulateUeNodes) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  const auto rnti = testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(60);

  const auto* ue = testbed.master().rib().find_ue(enb.agent_id, rnti);
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(ue->stats.wb_cqi, 12);
  EXPECT_GT(ue->last_update, 0);
  EXPECT_NEAR(ue->cqi_avg.value(), 12.0, 0.5);
}

TEST(MasterEndToEnd, SubframeSyncTracksAgentTime) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  testbed.run_ttis(100);
  const auto last = testbed.master().agent_subframe(enb.agent_id);
  // Master trails the agent by at most a couple of TTIs at zero latency.
  EXPECT_GT(last, testbed.current_tti() - 3);
  EXPECT_LE(last, testbed.current_tti());
}

TEST(MasterEndToEnd, LatencyDelaysMasterView) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.uplink.delay = sim::from_ms(20);
  s.downlink.delay = sim::from_ms(20);
  auto& enb = testbed.add_enb(s);
  testbed.run_ttis(200);
  const auto lag = testbed.current_tti() - testbed.master().agent_subframe(enb.agent_id);
  EXPECT_GE(lag, 20);
  EXPECT_LE(lag, 25);
}

TEST(MasterEndToEnd, EventsDispatchToApps) {
  std::vector<std::string> log;
  Testbed testbed(scenario::per_tti_master_config());
  testbed.master().add_app(std::make_unique<RecordingApp>("watcher", 100, log));
  testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(60);

  int rach_events = 0;
  int attach_events = 0;
  for (const auto& entry : log) {
    if (entry == "watcher:rach_attempt") ++rach_events;
    if (entry == "watcher:ue_attach") ++attach_events;
  }
  EXPECT_EQ(rach_events, 1);
  EXPECT_EQ(attach_events, 1);
}

TEST(MasterEndToEnd, EchoEstimatesRtt) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.echo_period_cycles = 50;
  Testbed testbed(config);
  auto s = spec();
  s.uplink.delay = sim::from_ms(10);
  s.downlink.delay = sim::from_ms(10);
  auto& enb = testbed.add_enb(s);
  testbed.run_ttis(300);
  const auto* agent = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(agent, nullptr);
  EXPECT_NEAR(agent->rtt_estimate_us, 20'000.0, 3'000.0);
}

TEST(MasterEndToEnd, PauseAppStopsItsCycles) {
  std::vector<std::string> log;
  Testbed testbed;
  testbed.master().add_app(std::make_unique<RecordingApp>("pausable", 100, log));
  testbed.add_enb(spec());
  testbed.run_ttis(10);
  const auto before = log.size();
  ASSERT_TRUE(testbed.master().pause_app("pausable").ok());
  testbed.run_ttis(10);
  EXPECT_EQ(log.size(), before);
  ASSERT_TRUE(testbed.master().resume_app("pausable").ok());
  testbed.run_ttis(10);
  EXPECT_GT(log.size(), before);
}

TEST(MasterEndToEnd, RxAccountingSeesStatsDominance) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  for (int i = 0; i < 8; ++i) testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(200);

  const auto& rx = testbed.master().rx_accounting(enb.agent_id);
  EXPECT_GT(rx.bytes(proto::MessageCategory::stats), rx.bytes(proto::MessageCategory::sync));
  EXPECT_GT(rx.bytes(proto::MessageCategory::sync),
            rx.bytes(proto::MessageCategory::agent_management));
  // Agent tx accounting and master rx accounting must agree.
  const auto& tx = enb.agent->tx_accounting();
  EXPECT_EQ(tx.bytes(proto::MessageCategory::stats), rx.bytes(proto::MessageCategory::stats));
}

TEST(MasterEndToEnd, MonitoringSummaryMirrorsUeStats) {
  // MonitoringApp and the rib_view summaries read the per-UE tree through
  // the pinned snapshot: populated by stats ingest, UE gone after detach.
  Testbed testbed(scenario::per_tti_master_config());
  auto* monitoring = static_cast<apps::MonitoringApp*>(
      testbed.master().add_app(std::make_unique<apps::MonitoringApp>(1)));
  auto& enb = testbed.add_enb(spec(1));
  testbed.add_enb(spec(2));
  const auto rnti = testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(60);

  const auto* ue = testbed.master().rib().find_ue(enb.agent_id, rnti);
  ASSERT_NE(ue, nullptr);
  ASSERT_TRUE(monitoring->summaries().contains(enb.agent_id));
  const auto& summary = monitoring->summaries().at(enb.agent_id);
  EXPECT_EQ(summary.ue_count, 1u);
  EXPECT_DOUBLE_EQ(summary.mean_cqi, 12.0);
  EXPECT_EQ(summary.total_queue_bytes, ue->stats.rlc_queue_bytes);
  const auto rows = summarize_ues(*testbed.master().rib_snapshot());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].rnti, rnti);
  EXPECT_EQ(rows[0].cqi, 12);
  EXPECT_EQ(rows[0].queue_bytes, ue->stats.rlc_queue_bytes);
  EXPECT_NEAR(rows[0].cqi_avg, ue->cqi_avg.value(), 1e-9);

  proto::HandoverCommand command;
  command.rnti = rnti;
  command.source_cell = 1;
  command.target_cell = 2;
  ASSERT_TRUE(testbed.master().send_handover(enb.agent_id, command).ok());
  testbed.run_ttis(10);
  EXPECT_EQ(testbed.master().rib().find_ue(enb.agent_id, rnti), nullptr);
  EXPECT_EQ(monitoring->summaries().at(enb.agent_id).ue_count, 0u);
}

TEST(MasterEndToEnd, RibTracksDetachOnHandoverEvent) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec(1));
  testbed.add_enb(spec(2));
  const auto rnti = testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(60);
  ASSERT_NE(testbed.master().rib().find_ue(enb.agent_id, rnti), nullptr);

  proto::HandoverCommand command;
  command.rnti = rnti;
  command.source_cell = 1;
  command.target_cell = 2;
  ASSERT_TRUE(testbed.master().send_handover(enb.agent_id, command).ok());
  testbed.run_ttis(10);
  EXPECT_EQ(testbed.enb(0).data_plane->ue_count(), 0u);
  EXPECT_EQ(testbed.master().rib().find_ue(enb.agent_id, rnti), nullptr);
}

// ---------------------------------------------------------- observability --

TEST(Observability, DisabledByDefaultHasNoInstrumentsOrTraces) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(50);
  EXPECT_FALSE(testbed.master().obs_enabled());
  EXPECT_EQ(testbed.master().metrics().size(), 0u);
  EXPECT_EQ(testbed.master().cycle_traces().recorded(), 0u);
  EXPECT_EQ(testbed.master().control_latency(enb.agent_id), nullptr);
}

TEST(Observability, CycleTracesRecordEveryStageInline) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(std::move(config));
  testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(100);

  const auto& traces = testbed.master().cycle_traces();
  EXPECT_EQ(traces.recorded(), static_cast<std::uint64_t>(testbed.master().cycles_run()));
  EXPECT_EQ(traces.updater_us().count(), traces.recorded());
  const auto kept = traces.snapshot();
  ASSERT_FALSE(kept.empty());
  // Cycle ids are consecutive, stage timings are sane (non-negative wall
  // time), and the steady per-TTI stats traffic shows up as applied
  // updates.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].cycle, kept[i - 1].cycle + 1);
  }
  std::uint64_t total_updates = 0;
  for (const auto& trace : kept) {
    EXPECT_GE(trace.updater_us, 0.0);
    EXPECT_GE(trace.event_us, 0.0);
    EXPECT_GE(trace.apps_us, 0.0);
    EXPECT_GE(trace.flush_us, 0.0);
    total_updates += trace.updates_applied;
  }
  EXPECT_GT(total_updates, 0u);
}

TEST(Observability, CycleTracesRecordWithPipelinedWorkers) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  config.task_manager.workers = 2;
  Testbed testbed(std::move(config));
  testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(100);
  testbed.master().quiesce();

  const auto& traces = testbed.master().cycle_traces();
  // In pipelined mode a cycle's trace completes when its app slot is
  // joined, so the final cycle may still be pending -- everything else
  // must be there.
  EXPECT_GE(traces.recorded() + 1, static_cast<std::uint64_t>(testbed.master().cycles_run()));
  EXPECT_GT(traces.recorded(), 90u);
  std::uint64_t total_updates = 0;
  for (const auto& trace : traces.snapshot()) total_updates += trace.updates_applied;
  EXPECT_GT(total_updates, 0u);
}

TEST(Observability, RegistryExportsMigratedCounters) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(100);

  auto& metrics = testbed.master().metrics();
  EXPECT_GT(metrics.size(), 30u);
  const std::string json = metrics.json();
  EXPECT_NE(json.find("\"cycles_run\":"), std::string::npos);
  EXPECT_NE(json.find("\"updates_applied\":"), std::string::npos);
  EXPECT_NE(json.find("signaling_rx_bytes{agent=1,category=stats}"), std::string::npos);
  EXPECT_NE(json.find("\"overload_state\":"), std::string::npos);
  // Probes track the live values, not a snapshot from registration time.
  const auto updates = testbed.master().updates_applied();
  EXPECT_NE(json.find("\"updates_applied\":" + std::to_string(updates)),
            std::string::npos)
      << json;
  // Decode-anomaly accounting (docs/wire_fastpath.md) is exported alongside
  // the hard decode-error counter, so dropped-but-recognised fields (e.g.
  // trailing BSR entries) are visible to operators rather than silent.
  const std::string text = metrics.prometheus_text();
  EXPECT_NE(text.find("proto_decode_anomalies"), std::string::npos) << text;
  EXPECT_NE(text.find("rx_decode_errors"), std::string::npos) << text;
  (void)enb;
}

TEST(Observability, TimestampEchoMeasuresControlLatency) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(std::move(config));
  auto s = spec();
  s.uplink.delay = sim::from_ms(5);
  s.downlink.delay = sim::from_ms(5);
  auto& enb = testbed.add_enb(s);
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(300);

  const auto* latency = testbed.master().control_latency(enb.agent_id);
  ASSERT_NE(latency, nullptr);
  ASSERT_GT(latency->count(), 0u);
  // Round trip crosses the 5 ms downlink and the 5 ms uplink, so every
  // sample is at least 10 ms; the cycle-boundary wait keeps it bounded.
  EXPECT_GE(latency->p50(), 10'000.0);
  EXPECT_LE(latency->p50(), 40'000.0);
}

TEST(Observability, NoLatencySamplesAtZeroDelayWithoutEnable) {
  // The echo only runs when the master stamps ts_us, i.e. never when obs
  // is off -- agents on a disabled master never see a timestamp to echo.
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  testbed.run_ttis(100);
  EXPECT_EQ(testbed.master().control_latency(enb.agent_id), nullptr);
}

}  // namespace
}  // namespace flexran::ctrl
