// Micro-benchmarks (google-benchmark) for the platform's hot paths and the
// design-choice ablations called out in DESIGN.md:
//  * FlexRAN protocol encode/decode (the per-TTI stats report with 16 UEs,
//    the scheduling command, the envelope);
//  * VSF behavior swap (the Sec. 5.4 hot path);
//  * RIB update application;
//  * single-writer RIB vs a mutex-per-update variant (the paper's argument
//    for the Task Manager's slotted design);
//  * YAML policy parsing;
//  * one round-robin scheduling decision for a loaded cell.
#include <benchmark/benchmark.h>

#include <mutex>

#include "agent/control_module.h"
#include "agent/schedulers.h"
#include "controller/arbiter.h"
#include "controller/rib.h"
#include "controller/rib_view.h"
#include "proto/messages.h"
#include "stack/enodeb.h"
#include "util/yaml_lite.h"

namespace flexran {
namespace {

proto::StatsReply make_stats_reply(int n_ues) {
  proto::StatsReply reply;
  reply.request_id = 1;
  reply.subframe = 123456;
  for (int i = 0; i < n_ues; ++i) {
    proto::UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(70 + i);
    ue.bsr_bytes = {0, 0, 14000u + static_cast<std::uint32_t>(i), 0};
    ue.wb_cqi = static_cast<std::uint8_t>(5 + i % 10);
    ue.rlc_queue_bytes = 14000;
    ue.dl_bytes_delivered = 123456789;
    reply.ue_reports.push_back(ue);
  }
  reply.cell_reports.push_back({1, -96.5, 48, 20, static_cast<std::uint32_t>(n_ues)});
  return reply;
}

void BM_EncodeStatsReply16Ues(benchmark::State& state) {
  const auto reply = make_stats_reply(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::pack(reply));
  }
  state.SetLabel("per-TTI agent report");
}
BENCHMARK(BM_EncodeStatsReply16Ues);

void BM_DecodeStatsReply16Ues(benchmark::State& state) {
  const auto wire = proto::pack(make_stats_reply(16));
  for (auto _ : state) {
    auto envelope = proto::Envelope::decode(wire);
    benchmark::DoNotOptimize(proto::unpack<proto::StatsReply>(*envelope));
  }
}
BENCHMARK(BM_DecodeStatsReply16Ues);

void BM_EncodeDlMacConfig(benchmark::State& state) {
  proto::DlMacConfig config;
  config.cell_id = 1;
  config.target_subframe = 4242;
  for (int i = 0; i < 8; ++i) {
    lte::DlDci dci;
    dci.rnti = static_cast<lte::Rnti>(70 + i);
    dci.rbs.set_range(i * 6, 6);
    dci.mcs = 20;
    config.dcis.push_back(dci);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::pack(config));
  }
  state.SetLabel("8-UE scheduling command");
}
BENCHMARK(BM_EncodeDlMacConfig);

void BM_VsfSwap(benchmark::State& state) {
  agent::register_builtin_vsfs();
  agent::VsfCache cache;
  (void)cache.store("mac", "dl_ue_scheduler", "local_rr");
  (void)cache.store("mac", "dl_ue_scheduler", "local_pf");
  agent::MacControlModule mac(cache);
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    benchmark::DoNotOptimize(
        mac.set_behavior(agent::MacControlModule::kDlSchedulerSlot,
                         flip ? "local_pf" : "local_rr"));
  }
  state.SetLabel("paper Sec 5.4: ~103ns");
}
BENCHMARK(BM_VsfSwap);

void BM_RibUpdateSingleWriter(benchmark::State& state) {
  ctrl::Rib rib;
  auto& agent = rib.agent(1);
  agent.cells[1] = ctrl::CellNode{};
  const auto reply = make_stats_reply(16);
  for (auto _ : state) {
    for (const auto& report : reply.ue_reports) {
      auto& ue = agent.cells[1].ues[report.rnti];
      ue.rnti = report.rnti;
      ue.stats = report;
      ue.cqi_avg.add(report.wb_cqi);
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel("16-UE report applied, no locking");
}
BENCHMARK(BM_RibUpdateSingleWriter);

void BM_RibUpdateMutexPerUe(benchmark::State& state) {
  // Ablation: the design the paper rejects -- any component may write, so
  // every UE update takes a lock even when uncontended.
  ctrl::Rib rib;
  auto& agent = rib.agent(1);
  agent.cells[1] = ctrl::CellNode{};
  std::mutex mutex;
  const auto reply = make_stats_reply(16);
  for (auto _ : state) {
    for (const auto& report : reply.ue_reports) {
      std::scoped_lock lock(mutex);
      auto& ue = agent.cells[1].ues[report.rnti];
      ue.rnti = report.rnti;
      ue.stats = report;
      ue.cqi_avg.add(report.wb_cqi);
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel("ablation: lock per UE update");
}
BENCHMARK(BM_RibUpdateMutexPerUe);

void BM_PolicyYamlParse(benchmark::State& state) {
  const char* yaml =
      "mac:\n"
      "  dl_ue_scheduler:\n"
      "    behavior: sliced\n"
      "    parameters:\n"
      "      slices:\n"
      "        - share: 0.7\n"
      "          policy: fair\n"
      "          rntis: [70, 71, 72, 73, 74]\n"
      "        - share: 0.3\n"
      "          policy: group\n"
      "          rntis: [80, 81, 82, 83, 84]\n"
      "          premium_rntis: [80, 81]\n"
      "          premium_share: 0.7\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::parse_yaml(yaml));
  }
  state.SetLabel("Fig. 3 policy message");
}
BENCHMARK(BM_PolicyYamlParse);

void BM_RoundRobinDecision(benchmark::State& state) {
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  agent::AgentApi api(dp);
  const auto n_ues = state.range(0);
  for (std::int64_t i = 0; i < n_ues; ++i) {
    stack::UeProfile profile;
    profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(static_cast<int>(5 + i % 10));
    profile.attach_after_ttis = 0;
    const auto rnti = dp.add_ue(std::move(profile));
    dp.enqueue_dl(rnti, lte::kDefaultDrb, 14000);
  }
  dp.subframe_begin(1);

  agent::RoundRobinDlVsf scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule_dl(api, 1));
  }
  state.SetLabel("one TTI decision; must be << 1ms");
}
BENCHMARK(BM_RoundRobinDecision)->Arg(4)->Arg(16)->Arg(50);

void BM_ConflictArbiterClaim(benchmark::State& state) {
  // The per-decision cost of the conflict-resolution extension: must be
  // negligible next to encoding/sending the decision itself.
  ctrl::ConflictArbiter arbiter;
  proto::DlMacConfig config;
  config.cell_id = 1;
  for (int i = 0; i < 8; ++i) {
    lte::DlDci dci;
    dci.rnti = static_cast<lte::Rnti>(70 + i);
    dci.rbs.set_range(i * 6, 6);
    config.dcis.push_back(dci);
  }
  std::int64_t subframe = 0;
  for (auto _ : state) {
    config.target_subframe = ++subframe;
    benchmark::DoNotOptimize(arbiter.claim_dl(1, config));
    if (subframe % 64 == 0) arbiter.prune_before(1, subframe);
  }
  state.SetLabel("8-DCI decision validated + claimed");
}
BENCHMARK(BM_ConflictArbiterClaim);

void BM_RibSummarize(benchmark::State& state) {
  ctrl::Rib rib;
  for (ctrl::AgentId agent_id = 1; agent_id <= 3; ++agent_id) {
    auto& agent = rib.agent(agent_id);
    auto& cell = agent.cells[agent_id];
    cell.config.cell_id = agent_id;
    for (int i = 0; i < 16; ++i) {
      auto& ue = cell.ues[static_cast<lte::Rnti>(70 + i)];
      ue.rnti = static_cast<lte::Rnti>(70 + i);
      ue.stats.wb_cqi = 10;
      ue.stats.rsrp = {{1, -80.0}, {2, -85.0}, {3, -90.0}};
    }
  }
  const auto snapshot = ctrl::RibSnapshot::capture(rib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl::summarize_ues(*snapshot));
  }
  state.SetLabel("northbound view, 3 agents x 16 UEs");
}
BENCHMARK(BM_RibSummarize);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  proto::EventNotification tick;
  tick.event = proto::EventType::subframe_tick;
  tick.subframe = 123456;
  tick.cell_id = 1;
  for (auto _ : state) {
    const auto wire = proto::pack(tick);
    auto envelope = proto::Envelope::decode(wire);
    benchmark::DoNotOptimize(proto::unpack<proto::EventNotification>(*envelope));
  }
  state.SetLabel("sync tick: smallest per-TTI message");
}
BENCHMARK(BM_EnvelopeRoundTrip);

}  // namespace
}  // namespace flexran

BENCHMARK_MAIN();
