// Tests for the platform extensions beyond the paper's prototype -- the
// items its Sec. 7 lists as future work: conflict resolution between
// controller apps, northbound RIB abstractions, mobility management with
// X2-style handover, LSA spectrum sharing via a protocol extension, and
// resilience (agent staleness at the master, remote-control fallback at
// the agent).
#include <gtest/gtest.h>

#include "apps/lsa.h"
#include "apps/mobility_manager.h"
#include "apps/remote_scheduler.h"
#include "controller/arbiter.h"
#include "controller/rib_view.h"
#include "phy/mobility.h"
#include "scenario/testbed.h"
#include "traffic/udp.h"

namespace flexran {
namespace {

using scenario::Testbed;

scenario::EnbSpec spec(lte::EnbId id = 1) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  return s;
}

stack::UeProfile cqi_ue(int cqi, std::int64_t attach_after = 1) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  return profile;
}

void saturate(Testbed& testbed, std::size_t enb_index, lte::Rnti rnti) {
  auto* dp = testbed.enb(enb_index).data_plane.get();
  testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
      (void)testbed.epc().downlink(rnti, 60'000);
    }
  });
}

// -------------------------------------------------------- conflict arbiter --

TEST(ConflictArbiter, DetectsOverlapsAcrossDecisions) {
  ctrl::ConflictArbiter arbiter;
  proto::DlMacConfig first;
  first.target_subframe = 100;
  lte::DlDci dci;
  dci.rnti = 70;
  dci.rbs.set_range(0, 25);
  dci.mcs = 10;
  first.dcis.push_back(dci);
  ASSERT_TRUE(arbiter.claim_dl(1, first).ok());

  // Disjoint PRBs for the same subframe: fine.
  proto::DlMacConfig second;
  second.target_subframe = 100;
  dci.rnti = 71;
  dci.rbs.clear();
  dci.rbs.set_range(25, 25);
  second.dcis = {dci};
  EXPECT_TRUE(arbiter.claim_dl(1, second).ok());

  // Overlapping PRBs: rejected.
  proto::DlMacConfig third;
  third.target_subframe = 100;
  dci.rnti = 72;
  dci.rbs.clear();
  dci.rbs.set_range(10, 5);
  third.dcis = {dci};
  EXPECT_FALSE(arbiter.claim_dl(1, third).ok());
  EXPECT_EQ(arbiter.conflicts_detected(), 1u);

  // Same PRBs, different subframe or agent: fine.
  third.target_subframe = 101;
  EXPECT_TRUE(arbiter.claim_dl(1, third).ok());
  third.target_subframe = 100;
  EXPECT_TRUE(arbiter.claim_dl(2, third).ok());
}

TEST(ConflictArbiter, DetectsSelfOverlapAndPrunes) {
  ctrl::ConflictArbiter arbiter;
  proto::DlMacConfig config;
  config.target_subframe = 50;
  lte::DlDci a;
  a.rnti = 70;
  a.rbs.set_range(0, 30);
  lte::DlDci b;
  b.rnti = 71;
  b.rbs.set_range(20, 10);  // overlaps a
  config.dcis = {a, b};
  EXPECT_FALSE(arbiter.claim_dl(1, config).ok());

  config.dcis = {a};
  ASSERT_TRUE(arbiter.claim_dl(1, config).ok());
  EXPECT_EQ(arbiter.open_claims(), 1u);
  arbiter.prune_before(1, 51);
  EXPECT_EQ(arbiter.open_claims(), 0u);
}

TEST(ConflictArbiter, EndToEndSecondSchedulerAppIsBlocked) {
  // Two remote scheduler apps over the same agent: the arbiter must reject
  // the lower-priority app's overlapping decisions.
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.agent.dl_scheduler = "remote";
  testbed.add_enb(s);
  auto* first = static_cast<apps::RemoteSchedulerApp*>(
      testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>()));
  auto* second = static_cast<apps::RemoteSchedulerApp*>(
      testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>()));

  const auto rnti = testbed.add_ue(0, cqi_ue(15, 10));
  saturate(testbed, 0, rnti);
  testbed.run_ttis(1000);

  EXPECT_GT(first->decisions_sent(), 500u);
  EXPECT_GT(testbed.master().arbiter().conflicts_detected(), 500u);
  // The duplicate app got nothing onto the wire, so the agent applied a
  // consistent schedule and the UE is served normally.
  EXPECT_LT(second->decisions_sent(), first->decisions_sent() / 10);
  EXPECT_TRUE(testbed.enb(0).data_plane->ue(rnti)->connected());
}

// ---------------------------------------------------------------- RIB view --

TEST(RibView, SummariesAndLoadHelpers) {
  ctrl::Rib rib;
  auto& agent1 = rib.agent(1);
  agent1.cells[1].config.cell_id = 1;
  agent1.cells[1].config.bandwidth_mhz = 10.0;
  agent1.cells[1].stats.dl_prbs_in_use = 25;
  agent1.cells[1].stats.active_ues = 3;
  auto& ue = agent1.cells[1].ues[70];
  ue.rnti = 70;
  ue.stats.wb_cqi = 11;
  ue.stats.rlc_queue_bytes = 5000;
  ue.stats.rsrp = {{1, -80.0}, {2, -75.0}, {3, -90.0}};
  ue.cqi_avg.add(11);

  auto& agent2 = rib.agent(2);
  agent2.cells[2].stats.active_ues = 1;

  const auto snapshot = ctrl::RibSnapshot::capture(rib);
  const auto summaries = ctrl::summarize_ues(*snapshot);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].rnti, 70);
  EXPECT_EQ(summaries[0].cqi, 11);
  EXPECT_EQ(summaries[0].queue_bytes, 5000u);
  ASSERT_TRUE(summaries[0].best_neighbor.has_value());
  EXPECT_EQ(*summaries[0].best_neighbor, 2u);  // -75 beats -90
  EXPECT_DOUBLE_EQ(summaries[0].best_neighbor_rsrp_dbm, -75.0);

  EXPECT_DOUBLE_EQ(ctrl::cell_dl_utilization(agent1.cells[1]), 0.5);
  ASSERT_TRUE(ctrl::least_loaded_agent(*snapshot).has_value());
  EXPECT_EQ(*ctrl::least_loaded_agent(*snapshot), 2u);
}

TEST(RibView, AnalyticsDerivesRates) {
  ctrl::Rib rib;
  auto& agent = rib.agent(1);
  agent.cells[1].config.cell_id = 1;
  auto& ue = agent.cells[1].ues[70];
  ue.rnti = 70;

  ctrl::RibAnalytics analytics;
  ue.stats.dl_bytes_delivered = 0;
  analytics.sample(*ctrl::RibSnapshot::capture(rib), 0);
  EXPECT_DOUBLE_EQ(analytics.ue_dl_rate_mbps(1, 70), 0.0);
  // 1 MB in one second = 8 Mb/s.
  ue.stats.dl_bytes_delivered = 1'000'000;
  analytics.sample(*ctrl::RibSnapshot::capture(rib), sim::from_seconds(1.0));
  EXPECT_NEAR(analytics.ue_dl_rate_mbps(1, 70), 8.0, 0.01);
  // Rate decays when delivery stops.
  analytics.sample(*ctrl::RibSnapshot::capture(rib), sim::from_seconds(2.0));
  EXPECT_LT(analytics.ue_dl_rate_mbps(1, 70), 8.0);
}

// ----------------------------------------------------------------- mobility --

TEST(MobilityTrack, InterpolatesPositionAndProfile) {
  const std::vector<phy::CellSite> sites = {{1, phy::kMacroTxPowerDbm, 0.0, 0.0},
                                            {2, phy::kMacroTxPowerDbm, 1.0, 0.0}};
  phy::MobilityTrack track(sites, {{0, 0.2, 0.0}, {sim::from_seconds(10), 0.8, 0.0}});

  EXPECT_DOUBLE_EQ(track.position_at(0).x_km, 0.2);
  EXPECT_DOUBLE_EQ(track.position_at(sim::from_seconds(5)).x_km, 0.5);
  EXPECT_DOUBLE_EQ(track.position_at(sim::from_seconds(99)).x_km, 0.8);  // clamped

  const auto near_cell1 = track.profile_at(0, 1);
  const auto near_cell2 = track.profile_at(sim::from_seconds(10), 1);
  EXPECT_GT(near_cell1.rx_power_dbm.at(1), near_cell1.rx_power_dbm.at(2));
  EXPECT_LT(near_cell2.rx_power_dbm.at(1), near_cell2.rx_power_dbm.at(2));
}

TEST(Mobility, LocalA3HandoverWithX2MovesUeAndKeepsTraffic) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s1 = spec(1);
  s1.use_radio_env = true;
  auto s2 = spec(2);
  s2.use_radio_env = true;
  auto& enb1 = testbed.add_enb(s1);
  testbed.add_enb(s2);
  testbed.enable_x2();

  // Activate the agent-side A3 handover policy on the source cell.
  ASSERT_TRUE(testbed.master()
                  .send_policy(enb1.agent_id,
                               "rrc:\n  handover_policy:\n    behavior: a3\n"
                               "    parameters:\n      hysteresis_db: 3\n"
                               "      time_to_trigger_ttis: 50\n")
                  .ok());

  auto track = std::make_shared<phy::MobilityTrack>(
      std::vector<phy::CellSite>{{1, phy::kMacroTxPowerDbm, 0.0, 0.0},
                                 {2, phy::kMacroTxPowerDbm, 1.0, 0.0}},
      std::vector<phy::MobilityTrack::Waypoint>{{0, 0.2, 0.0},
                                                {sim::from_seconds(8), 0.85, 0.0}});
  stack::UeProfile profile;
  profile.mobility = track;
  profile.attach_after_ttis = 10;
  const auto ue_id = testbed.add_ue(0, std::move(profile));

  // Continuous downlink through the EPC (the bearer follows the handover).
  testbed.on_tti([&testbed, ue_id](std::int64_t) {
    (void)testbed.epc().downlink(ue_id, 1500);
  });

  testbed.run_seconds(2.0);
  auto location = testbed.locate_ue(ue_id);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->enb_index, 0u);
  const auto bytes_at_cell1 = testbed.ue_total_bytes(ue_id, lte::Direction::downlink);
  EXPECT_GT(bytes_at_cell1, 100'000u);

  testbed.run_seconds(7.0);  // crosses the midpoint around t=4.6s
  location = testbed.locate_ue(ue_id);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->enb_index, 1u) << "A3 + X2 must have moved the UE to cell 2";
  EXPECT_EQ(enb1.agent->handovers_executed(), 1u);
  EXPECT_TRUE(testbed.enb(1).data_plane->ue(location->rnti)->connected());
  // Traffic continued at the target cell.
  EXPECT_GT(testbed.ue_total_bytes(ue_id, lte::Direction::downlink), bytes_at_cell1 + 500'000u);
}

TEST(Mobility, CentralizedMobilityManagerCommandsHandover) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s1 = spec(1);
  s1.use_radio_env = true;
  auto s2 = spec(2);
  s2.use_radio_env = true;
  testbed.add_enb(s1);
  testbed.add_enb(s2);
  testbed.enable_x2();

  apps::MobilityManagerConfig config;
  config.hysteresis_db = 3.0;
  config.evaluations_to_trigger = 3;
  config.period_cycles = 20;
  auto* app = static_cast<apps::MobilityManagerApp*>(
      testbed.master().add_app(std::make_unique<apps::MobilityManagerApp>(config)));

  auto track = std::make_shared<phy::MobilityTrack>(
      std::vector<phy::CellSite>{{1, phy::kMacroTxPowerDbm, 0.0, 0.0},
                                 {2, phy::kMacroTxPowerDbm, 1.0, 0.0}},
      std::vector<phy::MobilityTrack::Waypoint>{{0, 0.3, 0.0},
                                                {sim::from_seconds(6), 0.8, 0.0}});
  stack::UeProfile profile;
  profile.mobility = track;
  profile.attach_after_ttis = 10;
  const auto ue_id = testbed.add_ue(0, std::move(profile));

  testbed.run_seconds(7.0);
  EXPECT_GE(app->handovers_commanded(), 1u);
  auto location = testbed.locate_ue(ue_id);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->enb_index, 1u);
}

// --------------------------------------------------------------------- LSA --

TEST(Lsa, CarrierRestrictionMessageRoundTrip) {
  proto::CarrierRestriction restriction;
  restriction.cell_id = 3;
  restriction.max_dl_prbs = 30;
  auto decoded =
      proto::unpack<proto::CarrierRestriction>(proto::Envelope::decode(proto::pack(restriction)).value())
          .value();
  EXPECT_EQ(decoded.cell_id, 3u);
  EXPECT_EQ(decoded.max_dl_prbs, 30);
  EXPECT_EQ(proto::categorize(proto::MessageType::carrier_restriction, {}),
            proto::MessageCategory::commands);
}

TEST(Lsa, DataPlaneEnforcesRestriction) {
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  EXPECT_EQ(dp.effective_dl_prbs(), 50);
  dp.restrict_dl_prbs(30);
  EXPECT_EQ(dp.effective_dl_prbs(), 30);

  auto profile = cqi_ue(15, 0);
  const auto rnti = dp.add_ue(std::move(profile));
  dp.subframe_begin(1);
  dp.enqueue_dl(rnti, lte::kSrb1, 1000);

  lte::SchedulingDecision decision;
  decision.cell_id = 1;
  decision.subframe = 1;
  lte::DlDci dci;
  dci.rnti = rnti;
  dci.rbs.set_range(25, 10);  // PRBs 25..34 -> touches evacuated band
  dci.mcs = 20;
  decision.dl.push_back(dci);
  const auto rejected_before = dp.grants_rejected();
  ASSERT_TRUE(dp.apply_scheduling_decision(decision).ok());
  EXPECT_EQ(dp.grants_rejected(), rejected_before + 1);
  EXPECT_EQ(dp.dl_prbs_used_last_tti(), 0u);

  dp.restrict_dl_prbs(0);
  EXPECT_EQ(dp.effective_dl_prbs(), 50);
}

TEST(Lsa, IncumbentWindowThrottlesThroughputEndToEnd) {
  Testbed testbed(scenario::per_tti_master_config());
  testbed.add_enb(spec());
  apps::LsaConfig lsa;
  lsa.restricted_prbs = 20;  // incumbent takes 60% of the band
  lsa.incumbent_windows = {{2.0, 4.0}};
  auto* app = static_cast<apps::LsaControllerApp*>(
      testbed.master().add_app(std::make_unique<apps::LsaControllerApp>(lsa)));

  const auto rnti = testbed.add_ue(0, cqi_ue(15));
  saturate(testbed, 0, rnti);

  auto mbps_in = [&](double seconds) {
    const auto before = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
    testbed.run_seconds(seconds);
    const auto after = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
    return scenario::Metrics::mbps(after - before, seconds);
  };

  testbed.run_seconds(0.5);           // attach
  const double before = mbps_in(1.4);  // t in [0.5, 1.9): full band
  testbed.run_seconds(0.2);            // cross into the window
  const double during = mbps_in(1.6);  // t in [2.1, 3.7): restricted
  testbed.run_seconds(0.4);            // leave the window
  const double after = mbps_in(1.5);   // full band again

  EXPECT_TRUE(app->restrictions_sent() >= 2);
  EXPECT_FALSE(app->incumbent_active());
  // 20/50 PRBs -> ~40% of full throughput during the incumbent window.
  EXPECT_NEAR(during / before, 0.4, 0.08);
  EXPECT_NEAR(after / before, 1.0, 0.1);
}

// -------------------------------------------------------------- resilience --

TEST(Resilience, MasterMarksSilentAgentStale) {
  auto config = scenario::per_tti_master_config();
  config.agent_timeout_us = sim::from_ms(50);
  Testbed testbed(config);
  auto& enb = testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(100);
  EXPECT_FALSE(testbed.master().rib().find_agent(enb.agent_id)->is_stale());

  enb.set_control_down(true);
  testbed.run_ttis(100);
  EXPECT_TRUE(testbed.master().rib().find_agent(enb.agent_id)->is_stale());

  enb.set_control_down(false);
  testbed.run_ttis(20);
  EXPECT_FALSE(testbed.master().rib().find_agent(enb.agent_id)->is_stale());
}

TEST(Resilience, AgentFallsBackToLocalSchedulingDuringOutage) {
  auto config = scenario::per_tti_master_config();
  config.agent_timeout_us = sim::from_ms(50);
  Testbed testbed(config);
  auto s = spec();
  s.agent.dl_scheduler = "remote";
  s.agent.remote_fallback_ttis = 100;
  auto& enb = testbed.add_enb(s);
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>());

  const auto rnti = testbed.add_ue(0, cqi_ue(15, 10));
  saturate(testbed, 0, rnti);
  testbed.run_seconds(1.0);
  ASSERT_TRUE(enb.data_plane->ue(rnti)->connected());
  const auto before_outage = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  EXPECT_GT(before_outage, 0u);
  EXPECT_EQ(enb.agent->fallback_activations(), 0u);

  // Partition the control channel: the master goes silent.
  enb.set_control_down(true);
  testbed.run_seconds(1.0);
  EXPECT_EQ(enb.agent->fallback_activations(), 1u);
  EXPECT_EQ(enb.agent->mac().active_implementation("dl_ue_scheduler"), "local_rr");
  const auto during_outage =
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink) - before_outage;
  // The UE kept being served at nearly full rate through the outage.
  EXPECT_GT(scenario::Metrics::mbps(during_outage, 1.0), 18.0);
}

TEST(Resilience, WithoutFallbackOutageStallsRemoteScheduling) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.agent.dl_scheduler = "remote";  // no fallback configured
  auto& enb = testbed.add_enb(s);
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>());

  const auto rnti = testbed.add_ue(0, cqi_ue(15, 10));
  saturate(testbed, 0, rnti);
  testbed.run_seconds(1.0);
  const auto before = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);

  enb.set_control_down(true);
  testbed.run_seconds(1.0);
  const auto during = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink) - before;
  // Only the few already-queued schedule-ahead decisions trickle out.
  EXPECT_LT(scenario::Metrics::mbps(during, 1.0), 1.0);
}

// --------------------------------------------------------------------- DRX --

TEST(Drx, MessageRoundTripAndValidation) {
  proto::DrxConfig drx;
  drx.rnti = 70;
  drx.cycle_ttis = 40;
  drx.on_duration_ttis = 10;
  auto decoded =
      proto::unpack<proto::DrxConfig>(proto::Envelope::decode(proto::pack(drx)).value()).value();
  EXPECT_EQ(decoded.rnti, 70);
  EXPECT_EQ(decoded.cycle_ttis, 40);
  EXPECT_EQ(decoded.on_duration_ttis, 10);

  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  EXPECT_FALSE(dp.configure_drx(999, 40, 10).ok());  // unknown UE
  const auto rnti = dp.add_ue(cqi_ue(10, 0));
  EXPECT_FALSE(dp.configure_drx(rnti, 40, 0).ok());  // zero on-duration
  EXPECT_TRUE(dp.configure_drx(rnti, 40, 10).ok());
  EXPECT_TRUE(dp.configure_drx(rnti, 0, 0).ok());  // DRX off
}

TEST(Drx, SleepingUeIsHiddenAndUnschedulable) {
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  const auto rnti = dp.add_ue(cqi_ue(12, 0));
  dp.subframe_begin(1);
  dp.enqueue_dl(rnti, lte::kSrb1, 1000);
  ASSERT_TRUE(dp.configure_drx(rnti, 10, 4).ok());

  // Subframe 12 -> (12 % 10) = 2 < 4: awake.
  simulator.run_until(12 * sim::kTtiUs);
  dp.subframe_begin(12);
  EXPECT_EQ(dp.scheduler_view().size(), 1u);

  // Subframe 17 -> (17 % 10) = 7 >= 4: asleep, hidden, grants rejected.
  simulator.run_until(17 * sim::kTtiUs);
  dp.subframe_begin(17);
  EXPECT_TRUE(dp.scheduler_view().empty());
  lte::SchedulingDecision decision;
  decision.cell_id = 1;
  decision.subframe = 17;
  lte::DlDci dci;
  dci.rnti = rnti;
  dci.rbs.set_range(0, 10);
  dci.mcs = 10;
  decision.dl.push_back(dci);
  const auto rejected = dp.grants_rejected();
  ASSERT_TRUE(dp.apply_scheduling_decision(decision).ok());
  EXPECT_EQ(dp.grants_rejected(), rejected + 1);
}

TEST(Drx, DutyCycleBoundsThroughputEndToEnd) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  const auto rnti = testbed.add_ue(0, cqi_ue(15));
  saturate(testbed, 0, rnti);
  testbed.run_seconds(1.0);
  const auto full_bytes = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  const double full_mbps = scenario::Metrics::mbps(full_bytes, 1.0);

  proto::DrxConfig drx;
  drx.rnti = rnti;
  drx.cycle_ttis = 10;
  drx.on_duration_ttis = 5;  // 50% duty cycle
  ASSERT_TRUE(testbed.master().send_drx_config(enb.agent_id, drx).ok());
  testbed.run_ttis(20);
  const auto before = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  testbed.run_seconds(1.0);
  const double drx_mbps = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink) - before, 1.0);
  EXPECT_NEAR(drx_mbps / full_mbps, 0.5, 0.08);
}

// ---------------------------------------------------------------- remote UL --

TEST(RemoteUl, MasterSchedulesUplinkFromReportedBuffers) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.agent.dl_scheduler = "remote";
  s.agent.ul_scheduler = "remote";  // local UL scheduling inactive
  auto& enb = testbed.add_enb(s);
  apps::RemoteSchedulerConfig config;
  config.schedule_ul = true;
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>(config));

  const auto rnti = testbed.add_ue(0, cqi_ue(15, 10));
  testbed.run_ttis(200);
  ASSERT_TRUE(enb.data_plane->ue(rnti)->connected());

  // UL backlog only reaches the eNodeB via grants; grants only come from
  // the master's UlMacConfig path.
  auto* dp = enb.data_plane.get();
  testbed.on_tti([dp, rnti](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->connected() && ue->ul_buffer_bytes < 20'000) {
      dp->enqueue_ul(rnti, 20'000);
    }
  });
  testbed.run_seconds(2.0);
  const double ul_mbps = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, rnti, lte::Direction::uplink), 2.0);
  EXPECT_GT(ul_mbps, 4.0);  // remote UL path carries real traffic
}

// ----------------------------------------------------- carrier aggregation --

TEST(CarrierAggregation, MessageRoundTripAndValidation) {
  proto::ScellCommand command;
  command.rnti = 70;
  command.activate = true;
  auto decoded =
      proto::unpack<proto::ScellCommand>(proto::Envelope::decode(proto::pack(command)).value())
          .value();
  EXPECT_EQ(decoded.rnti, 70);
  EXPECT_TRUE(decoded.activate);

  // DCI carrier field survives the wire.
  proto::DlMacConfig config;
  config.cell_id = 1;
  config.target_subframe = 9;
  lte::DlDci dci;
  dci.rnti = 70;
  dci.rbs.set_range(0, 10);
  dci.mcs = 20;
  dci.carrier = 1;
  config.dcis.push_back(dci);
  auto config2 =
      proto::unpack<proto::DlMacConfig>(proto::Envelope::decode(proto::pack(config)).value())
          .value();
  ASSERT_EQ(config2.dcis.size(), 1u);
  EXPECT_EQ(config2.dcis[0].carrier, 1);
}

TEST(CarrierAggregation, DataPlaneValidatesActivation) {
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane no_scell(simulator, config);
  EXPECT_EQ(no_scell.scell_prbs(), 0);
  EXPECT_FALSE(no_scell.set_scell_active(1, true).ok());  // no SCell at all

  config.scell = lte::CellConfig{};
  config.scell->cell_id = 100;
  stack::EnodebDataPlane dp(simulator, config);
  EXPECT_EQ(dp.scell_prbs(), 50);

  auto plain = cqi_ue(15, 0);
  const auto plain_rnti = dp.add_ue(std::move(plain));
  EXPECT_FALSE(dp.set_scell_active(plain_rnti, true).ok());  // not CA-capable

  auto ca = cqi_ue(15, 0);
  ca.config.carrier_aggregation = true;
  ca.config.ue_category = 6;
  const auto ca_rnti = dp.add_ue(std::move(ca));
  EXPECT_TRUE(dp.set_scell_active(ca_rnti, true).ok());

  // An SCell grant for the non-activated UE is rejected; for the activated
  // UE it transmits.
  dp.subframe_begin(1);
  dp.enqueue_dl(plain_rnti, lte::kSrb1, 1000);
  dp.enqueue_dl(ca_rnti, lte::kSrb1, 1000);
  lte::SchedulingDecision decision;
  decision.cell_id = 1;
  decision.subframe = 1;
  lte::DlDci dci;
  dci.rbs.set_range(0, 10);
  dci.mcs = 15;
  dci.carrier = 1;
  dci.rnti = plain_rnti;
  decision.dl.push_back(dci);
  dci.rnti = ca_rnti;
  decision.dl.push_back(dci);  // same PRBs are fine: different UEs rejected/accepted
  const auto rejected_before = dp.grants_rejected();
  ASSERT_TRUE(dp.apply_scheduling_decision(decision).ok());
  EXPECT_EQ(dp.grants_rejected(), rejected_before + 1);
}

TEST(CarrierAggregation, ScellHarqRetransmitsOnItsOwnCarrier) {
  // Aggressive MCS on the SCell: NACKed blocks must retransmit via the
  // SCell HARQ entity and eventually deliver, without touching PCell HARQ.
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  config.scell = lte::CellConfig{};
  config.scell->cell_id = 100;
  stack::EnodebDataPlane dp(simulator, config, nullptr, /*seed=*/7);

  auto profile = cqi_ue(8, 0);
  profile.config.carrier_aggregation = true;
  const auto rnti = dp.add_ue(std::move(profile));
  ASSERT_TRUE(dp.set_scell_active(rnti, true).ok());

  std::uint64_t delivered = 0;
  dp.set_delivery_callback([&](lte::Rnti, std::uint32_t bytes, lte::Direction dir) {
    if (dir == lte::Direction::downlink) delivered += bytes;
  });

  for (std::int64_t sf = 1; sf <= 600; ++sf) {
    simulator.run_until(sf * sim::kTtiUs);
    dp.subframe_begin(sf);
    const auto* ue = dp.ue(rnti);
    if (ue->dl_queue.total_bytes() < 10'000) dp.enqueue_dl(rnti, lte::kDefaultDrb, 10'000);
    lte::SchedulingDecision decision;
    decision.cell_id = 1;
    decision.subframe = sf;
    lte::DlDci dci;
    dci.rnti = rnti;
    dci.rbs.set_range(0, 50);
    // Overshoot the channel by 2 MCS steps: ~65% first-tx BLER.
    dci.mcs = std::min(lte::cqi_to_mcs(ue->reported_cqi_protected) + 2, lte::kMaxMcs);
    dci.carrier = 1;
    decision.dl.push_back(dci);
    ASSERT_TRUE(dp.apply_scheduling_decision(decision).ok());
    dp.subframe_end(sf);
  }
  const auto* ue = dp.ue(rnti);
  EXPECT_GT(ue->dl_blocks_nacked, 50u);  // retransmissions happened...
  EXPECT_GT(delivered, 400'000u);        // ...and blocks still got through
}

TEST(CarrierAggregation, ScellActivationScalesThroughputEndToEnd) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.enb.scell = lte::CellConfig{};
  s.enb.scell->cell_id = 101;
  s.agent.dl_scheduler = "local_ca_rr";
  auto& enb = testbed.add_enb(s);

  auto profile = cqi_ue(15);
  profile.config.carrier_aggregation = true;
  profile.config.ue_category = 6;  // cap above 2x carrier throughput
  const auto rnti = testbed.add_ue(0, std::move(profile));
  saturate(testbed, 0, rnti);
  testbed.run_seconds(1.0);
  const auto base = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  const double pcell_only_mbps = scenario::Metrics::mbps(base, 1.0);

  // Master activates the secondary carrier (Table 1 CA command).
  proto::ScellCommand activate;
  activate.rnti = rnti;
  activate.activate = true;
  ASSERT_TRUE(testbed.master().send_scell_command(enb.agent_id, activate).ok());
  testbed.run_ttis(20);
  const auto after_activation = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  testbed.run_seconds(1.0);
  const double ca_mbps = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink) - after_activation, 1.0);
  EXPECT_NEAR(ca_mbps / pcell_only_mbps, 2.0, 0.2);

  // Deactivation returns to single-carrier throughput.
  activate.activate = false;
  ASSERT_TRUE(testbed.master().send_scell_command(enb.agent_id, activate).ok());
  testbed.run_ttis(20);
  const auto after_deactivation =
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  testbed.run_seconds(1.0);
  const double back_mbps = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink) - after_deactivation, 1.0);
  EXPECT_NEAR(back_mbps / pcell_only_mbps, 1.0, 0.1);
}

// ----------------------------------------------------------- non-RT master --

TEST(NonRealTime, CoarseCycleMasterStillManagesAgents) {
  // Paper Sec. 4.3.3: the master "can operate in a non real-time mode...
  // with the advantage of being more lightweight". Drive the task manager
  // every 10 ms instead of every TTI; local schedulers keep the data plane
  // running and the RIB still converges.
  sim::Simulator simulator;
  ctrl::MasterConfig config = scenario::per_tti_master_config(10);
  config.task_manager.real_time = false;
  config.task_manager.cycle_us = 10'000;
  ctrl::ShardCore master(simulator, config);

  lte::EnbConfig enb_config;
  enb_config.enb_id = 1;
  enb_config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, enb_config);
  agent::AgentConfig agent_config;
  agent_config.enb_id = 1;
  agent::Agent agent(simulator, dp, agent_config);
  auto transports = net::make_sim_transport_pair(simulator);
  master.add_agent(*transports.a);
  agent.connect(*transports.b);

  auto profile = cqi_ue(11, 5);
  const auto rnti = dp.add_ue(std::move(profile));

  sim::TtiTicker ticker(simulator);
  ticker.subscribe([&](std::int64_t tti) {
    dp.subframe_begin(tti);
    dp.subframe_end(tti);
    if (tti % 10 == 0) master.run_cycle();  // non-RT: every 10th TTI
  });
  ticker.start();
  simulator.run_until(sim::from_seconds(1.0));

  EXPECT_TRUE(dp.ue(rnti)->connected());
  const auto* ue_node = master.rib().find_ue(1, rnti);
  ASSERT_NE(ue_node, nullptr);
  EXPECT_EQ(ue_node->stats.wb_cqi, 11);
  EXPECT_EQ(master.cycles_run(), 100);
}

}  // namespace
}  // namespace flexran
