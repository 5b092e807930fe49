// closed_loop_sched: real eNodeBs (agent::Agent over stack::EnodebDataPlane)
// under the centralized remote scheduler -- the paper's most demanding
// configuration (Fig. 9, scenarios/centralized_scheduling.yaml scaled to 16
// eNodeBs). Every agent reports every TTI over a 2 ms link and the master
// sends one DL decision per agent per TTI, 8 subframes ahead.
//
// The generator is the DL traffic: full-buffer top-ups and 1.5 Mb/s CBR
// arrivals, injected between TTIs. Channels are seeded fading processes.
#include <algorithm>
#include <stdexcept>

#include "agent/agent.h"
#include "agent/reports.h"
#include "apps/remote_scheduler.h"
#include "harness.h"
#include "net/sim_transport.h"
#include "phy/channel.h"
#include "scenario/testbed.h"
#include "stack/enodeb.h"

namespace loopbench {
namespace {

using namespace flexran;

constexpr std::size_t kEnbs = 16;
constexpr std::size_t kUesPerEnb = 16;
constexpr sim::TimeUs kLinkDelayUs = 2000;
constexpr int kScheduleAhead = 8;
constexpr std::uint32_t kFullBufferLowWater = 60'000;
/// 1.5 Mb/s: one 1500-byte packet every 8 ms.
constexpr std::uint32_t kCbrPacketBytes = 1500;
constexpr std::int64_t kCbrPeriodTtis = 8;

/// Seeded per-UE inputs: channel and traffic.
struct UeInput {
  double mean_sinr_db = 0.0;
  std::uint64_t channel_seed = 0;
  bool full_buffer = false;
  std::int64_t cbr_phase = 0;
};

struct ClosedLoopInputs {
  explicit ClosedLoopInputs(std::uint64_t seed) : seed(seed) {
    for (std::size_t e = 0; e < kEnbs; ++e) {
      for (std::size_t j = 0; j < kUesPerEnb; ++j) {
        const std::uint64_t s = mix64(seed ^ mix64((e << 16) ^ j));
        UeInput ue;
        ue.mean_sinr_db = 4.0 + static_cast<double>(s % 1600) / 100.0;  // 4..20 dB
        ue.channel_seed = mix64(s);
        ue.full_buffer = j % 2 == 0;
        ue.cbr_phase = static_cast<std::int64_t>((s >> 20) % kCbrPeriodTtis);
        ues.push_back(ue);
      }
    }
  }

  phy::FadingChannel::Config channel(const UeInput& ue) const {
    phy::FadingChannel::Config config;
    config.mean_sinr_db = ue.mean_sinr_db;
    config.stddev_db = 3.0;
    config.coherence = 20 * sim::kTtiUs;
    config.memory = 0.85;
    config.seed = ue.channel_seed;
    return config;
  }

  /// Digest of the per-UE inputs plus every UE's channel CQI over TTIs
  /// 1..ttis.
  std::uint64_t digest(int ttis) const {
    std::uint64_t hash = kFnvBasis;
    for (const auto& ue : ues) {
      hash = fnv1a(hash, &ue.mean_sinr_db, sizeof(ue.mean_sinr_db));
      hash = fnv1a(hash, &ue.channel_seed, sizeof(ue.channel_seed));
      hash = fnv1a(hash, &ue.full_buffer, sizeof(ue.full_buffer));
      hash = fnv1a(hash, &ue.cbr_phase, sizeof(ue.cbr_phase));
      phy::FadingChannel channel_model(channel(ue));
      for (int t = 1; t <= ttis; ++t) {
        const int cqi = channel_model.cqi(t * sim::kTtiUs);
        hash = fnv1a(hash, &cqi, sizeof(cqi));
      }
    }
    return hash;
  }

  std::uint64_t seed;
  std::vector<UeInput> ues;  // [enb * kUesPerEnb + ue]
};

ctrl::MasterConfig closed_loop_master_config() {
  // Per-TTI full statistics plus subframe ticks: the scenario layer's
  // centralized-scheduling master (1 shard, apps inline).
  return scenario::per_tti_master_config(1);
}

agent::AgentConfig agent_config(std::size_t enb) {
  agent::AgentConfig config;
  config.enb_id = static_cast<lte::EnbId>(enb + 1);
  config.name = "enb-" + std::to_string(enb + 1);
  config.dl_scheduler = "remote";
  return config;
}

lte::EnbConfig enb_config(std::size_t enb) {
  lte::EnbConfig config;
  config.enb_id = static_cast<lte::EnbId>(enb + 1);
  config.cells[0].cell_id = static_cast<lte::CellId>(enb + 1);
  return config;
}

proto::StatsRequest per_tti_stats_request() {
  proto::StatsRequest request;
  request.request_id = 1;
  request.mode = proto::ReportMode::periodic;
  request.periodicity_ttis = 1;
  request.flags = proto::stats_flags::kAll;
  return request;
}

class ClosedLoop final : public Workload {
 public:
  ClosedLoop(const ClosedLoopInputs& inputs, Context& context)
      : in_(inputs), context_(context), coordinator_(sim_, coordinator_config()) {
    apps::RemoteSchedulerConfig scheduler;
    scheduler.schedule_ahead_sf = kScheduleAhead;
    coordinator_.shard(0).add_app(std::make_unique<TimedApp>(
        std::make_unique<apps::RemoteSchedulerApp>(scheduler), context_.tracer, context_.log,
        false));

    sim::LinkConfig link;
    link.delay = kLinkDelayUs;
    ctrl::AgentId max_id = 0;
    for (std::size_t e = 0; e < kEnbs; ++e) {
      auto enb = std::make_unique<Enb>();
      enb->dp = std::make_unique<stack::EnodebDataPlane>(sim_, enb_config(e), nullptr,
                                                         mix64(in_.seed ^ e));
      enb->agent = std::make_unique<agent::Agent>(sim_, *enb->dp, agent_config(e));
      enb->link = net::make_sim_transport_pair(sim_, link, link);
      enb->id = coordinator_.add_agent(*enb->link.a, e + 1);
      max_id = std::max(max_id, enb->id);
      enb->agent->connect(*enb->link.b);
      enb->delivered.assign(kUesPerEnb, 0);
      Enb* raw = enb.get();
      enb->dp->set_delivery_callback(
          [raw](lte::Rnti rnti, std::uint32_t bytes, lte::Direction direction) {
            const auto index = static_cast<std::size_t>(rnti - raw->rntis.front());
            if (direction == lte::Direction::downlink && index < raw->delivered.size()) {
              raw->delivered[index] += bytes;
            }
          });
      for (std::size_t j = 0; j < kUesPerEnb; ++j) {
        const UeInput& ue = in_.ues[e * kUesPerEnb + j];
        stack::UeProfile profile;
        profile.dl_channel = std::make_unique<phy::FadingChannel>(in_.channel(ue));
        profile.attach_after_ttis = static_cast<std::int64_t>(2 + j);
        profile.ul_cqi = 8;
        enb->rntis.push_back(enb->dp->add_ue(std::move(profile)));
      }
      enbs_.push_back(std::move(enb));
    }
    context_.log.per_agent.assign(max_id + 1, {});
    if (context_.options.inject == "unrouted_command") context_.log.swallow_at = 1000;
    if (context_.options.inject == "drop_report") {
      throw std::invalid_argument("closed_loop_sched supports --inject unrouted_command only");
    }
  }

  void step(std::int64_t tti, Probe& probe) override {
    probe.system(SpanName::run_until, [&] { sim_.run_until(tti * sim::kTtiUs); });
    for (auto& enb : enbs_) {
      probe.system(SpanName::subframe_begin, [&] { enb->dp->subframe_begin(tti); });
    }
    probe.observe_queues(coordinator_);
    probe.cycle([&] { coordinator_.run_cycle(); });
    probe.observe_ages(coordinator_, tti, true);
    for (auto& enb : enbs_) {
      probe.system(SpanName::subframe_end, [&] { enb->dp->subframe_end(tti); });
    }
    probe.generator([&] { offer_traffic(tti + 1); });
    last_step_ = tti;
  }

  bool ready() const override {
    const auto snapshot = coordinator_.rib_snapshot();
    return snapshot->agent_count() == kEnbs && snapshot->ue_count() == kEnbs * kUesPerEnb;
  }

  void drain(std::int64_t tti) override {
    // Reports in flight reach the master and decisions reach the agents;
    // then one last cycle applies the reports, and its decisions are
    // delivered too. No subframe advances, so nothing new is due.
    const sim::TimeUs now = tti * sim::kTtiUs;
    sim_.run_until(now + 2 * kLinkDelayUs);
    coordinator_.run_cycle();
    coordinator_.quiesce();
    sim_.run_until(now + 4 * kLinkDelayUs);
  }

  void check(Outcome& out) const override {
    std::uint64_t reports_sent = 0;
    std::uint64_t decisions_applied = 0;
    std::uint64_t decisions_missed = 0;
    std::uint64_t decisions_queued = 0;
    std::size_t silent_ues = 0;
    for (const auto& enb : enbs_) {
      reports_sent += enb->link.b->messages_sent();
      decisions_applied += enb->agent->remote_decisions_applied();
      decisions_missed += enb->agent->missed_deadline_decisions();
      decisions_queued += enb->agent->queued_decisions();
      for (const auto bytes : enb->delivered) silent_ues += bytes == 0 ? 1 : 0;
    }
    const auto& core = coordinator_.shard(0);
    const std::uint64_t applied = coordinator_.updates_applied();
    const std::uint64_t pending = core.pending_updates();
    const std::uint64_t decisions_sent = context_.log.sent;
    out.attempted = reports_sent + decisions_sent;

    out.expect(silent_ues == 0,
               "every UE received bytes (" + std::to_string(silent_ues) + " received none)");
    out.expect(decisions_applied + decisions_missed + decisions_queued == decisions_sent,
               "decisions applied (" + std::to_string(decisions_applied) + ") + missed (" +
                   std::to_string(decisions_missed) + ") + still queued (" +
                   std::to_string(decisions_queued) + ") equals decisions delivered (" +
                   std::to_string(decisions_sent) + " sent, all delivered after drain)");
    out.expect(applied + pending == reports_sent,
               "updates_applied (" + std::to_string(applied) + ") + queued (" +
                   std::to_string(pending) + ") equals agent messages sent (" +
                   std::to_string(reports_sent) + ")");
    out.expect(core.rx_decode_errors() == 0, "rx_decode_errors is 0 (got " +
                                                 std::to_string(core.rx_decode_errors()) + ")");

    const std::uint64_t accounted_reports = applied + pending;
    const std::uint64_t failed_reports =
        reports_sent > accounted_reports ? reports_sent - accounted_reports : 0;
    const std::uint64_t taken = decisions_applied + decisions_queued;
    const std::uint64_t failed_decisions = decisions_sent > taken ? decisions_sent - taken : 0;
    out.failed = failed_reports + failed_decisions;
  }

  ctrl::Coordinator& coordinator() override { return coordinator_; }
  bool global_app() const override { return false; }

  std::uint64_t bytes_up() const override {
    std::uint64_t total = 0;
    for (const auto& enb : enbs_) total += enb->link.b->bytes_sent();
    return total;
  }
  std::uint64_t bytes_down() const override {
    std::uint64_t total = 0;
    for (const auto& enb : enbs_) total += enb->link.a->bytes_sent();
    return total;
  }

  std::set<ctrl::AgentId> last_dirty(std::size_t shard) const override {
    std::set<ctrl::AgentId> dirty;
    if (shard != 0) return dirty;
    for (const auto& enb : enbs_) dirty.insert(enb->id);
    return dirty;
  }

  WireSamples samples() const override {
    WireSamples samples;
    proto::WireEncoder enc;
    const proto::Envelope header;
    const auto encode = [&](const proto::StatsReply& reply) {
      enc.clear();
      proto::encode_envelope(enc, header, reply);
      return std::vector<std::uint8_t>(enc.bytes().begin(), enc.bytes().end());
    };
    for (const auto& enb : enbs_) {
      agent::ReportsManager reports(enb->agent->api());
      reports.register_request(per_tti_stats_request(), last_step_);
      for (const auto& reply : reports.collect(last_step_)) samples.reports.push_back(encode(reply));
    }
    agent::ReportsManager reports(enbs_.front()->agent->api());
    reports.register_request(per_tti_stats_request(), last_step_);
    for (std::int64_t sf = last_step_; sf < last_step_ + 64; ++sf) {
      for (const auto& reply : reports.collect(sf)) samples.one_agent.push_back(encode(reply));
    }
    samples.commands = context_.log.samples;
    return samples;
  }

  ctrl::MasterConfig master_config() const override { return closed_loop_master_config(); }

  void agent_metrics(LayerMetrics& metrics) override;

 private:
  struct Enb {
    std::unique_ptr<stack::EnodebDataPlane> dp;
    std::unique_ptr<agent::Agent> agent;
    net::SimTransportPair link;
    ctrl::AgentId id = 0;
    std::vector<lte::Rnti> rntis;
    std::vector<std::uint64_t> delivered;
  };

  static ctrl::CoordinatorConfig coordinator_config() {
    ctrl::CoordinatorConfig config;
    config.shards = 1;
    config.shard = closed_loop_master_config();
    return config;
  }

  void offer_traffic(std::int64_t tti) {
    for (std::size_t e = 0; e < kEnbs; ++e) {
      auto& enb = *enbs_[e];
      for (std::size_t j = 0; j < kUesPerEnb; ++j) {
        const UeInput& ue = in_.ues[e * kUesPerEnb + j];
        const lte::Rnti rnti = enb.rntis[j];
        if (ue.full_buffer) {
          const auto* context = enb.dp->ue(rnti);
          if (context != nullptr && context->dl_queue.total_bytes() < kFullBufferLowWater) {
            enb.dp->enqueue_dl(rnti, lte::kDefaultDrb, kFullBufferLowWater);
          }
        } else if ((tti + ue.cbr_phase) % kCbrPeriodTtis == 0) {
          enb.dp->enqueue_dl(rnti, lte::kDefaultDrb, kCbrPacketBytes);
        }
      }
    }
  }

  const ClosedLoopInputs& in_;
  Context& context_;
  sim::Simulator sim_;
  ctrl::Coordinator coordinator_;
  std::vector<std::unique_ptr<Enb>> enbs_;
  std::int64_t last_step_ = 0;
};

/// Agent- and stack-layer replays on this workload's own eNodeBs.
void ClosedLoop::agent_metrics(LayerMetrics& metrics) {
  std::uint64_t applied = 0;
  std::uint64_t missed = 0;
  for (const auto& enb : enbs_) {
    applied += enb->agent->remote_decisions_applied();
    missed += enb->agent->missed_deadline_decisions();
  }
  metrics["agent.decision_miss_ratio"] =
      applied + missed == 0 ? 0.0
                            : static_cast<double>(missed) / static_cast<double>(applied + missed);

  // Report build: a standalone ReportsManager over each eNodeB's agent API
  // builds the per-TTI StatsReply, which is then encoded into an envelope.
  {
    std::vector<agent::ReportsManager> managers;
    for (const auto& enb : enbs_) {
      managers.emplace_back(enb->agent->api());
      managers.back().register_request(per_tti_stats_request(), last_step_);
    }
    proto::WireEncoder enc;
    const proto::Envelope header;
    std::int64_t subframe = last_step_;
    std::uint64_t built = 0;
    const auto build_round = [&] {
      for (auto& manager : managers) {
        for (const auto& reply : manager.collect(subframe)) {
          enc.clear();
          proto::encode_envelope(enc, header, reply);
          ++built;
        }
      }
      ++subframe;
    };
    for (int i = 0; i < 20; ++i) build_round();
    built = 0;
    const std::uint64_t allocs0 = allocations();
    const std::int64_t start = now_ns();
    for (int i = 0; i < 200; ++i) build_round();
    const double elapsed_us = static_cast<double>(now_ns() - start) / 1e3;
    metrics["agent.report_build_us"] = elapsed_us / static_cast<double>(built);
    metrics["agent.report_build_allocs"] =
        static_cast<double>(allocations() - allocs0) / static_cast<double>(built);
  }

  // Command apply: a DL MAC config delivered into a fresh agent of the same
  // configuration (decode + schedule-ahead queueing; the MAC applies it at
  // its subframe, which stack.subframe_us_per_enb covers).
  {
    sim::Simulator sim;
    stack::EnodebDataPlane dp(sim, enb_config(0), nullptr, 1);
    for (std::size_t j = 0; j < kUesPerEnb; ++j) {
      stack::UeProfile profile;
      profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(10);
      dp.add_ue(std::move(profile));
    }
    agent::Agent agent(sim, dp, agent_config(0));
    auto link = net::make_sim_transport_pair(sim);
    link.a->set_receive_callback([](std::span<const std::uint8_t>) {});
    agent.connect(*link.b);
    sim.run();
    dp.subframe_begin(1);

    std::vector<proto::DlMacConfig> commands = context_.log.samples;
    if (commands.empty()) throw std::runtime_error("no DL MAC config captured for replay");
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t k = 0; k < static_cast<std::size_t>(kScheduleAhead); ++k) {
      proto::DlMacConfig command = commands[k % commands.size()];
      command.cell_id = enb_config(0).cells[0].cell_id;
      command.target_subframe = 1000 + static_cast<std::int64_t>(k);
      frames.push_back(proto::pack(command));
    }
    const auto deliver = [&](std::size_t i, std::int64_t& ns, std::uint64_t& allocs) {
      (void)link.a->send(net::TrafficClass::command, frames[i % frames.size()]);
      const std::uint64_t a0 = allocations();
      const std::int64_t t0 = now_ns();
      sim.run();
      ns += now_ns() - t0;
      allocs += allocations() - a0;
    };
    std::int64_t ns = 0;
    std::uint64_t allocs = 0;
    for (std::size_t i = 0; i < 100; ++i) deliver(i, ns, allocs);
    ns = 0;
    allocs = 0;
    constexpr std::size_t kCommands = 4000;
    for (std::size_t i = 0; i < kCommands; ++i) deliver(i, ns, allocs);
    metrics["agent.command_apply_us"] = static_cast<double>(ns) / 1e3 / kCommands;
    metrics["agent.command_apply_allocs"] = static_cast<double>(allocs) / kCommands;
  }
}

}  // namespace

WorkloadSpec closed_loop_sched(Context& context) {
  auto inputs = std::make_shared<const ClosedLoopInputs>(context.options.seed);
  WorkloadSpec spec;
  spec.make = [inputs, &context] { return std::make_unique<ClosedLoop>(*inputs, context); };
  spec.input_digest = [inputs](int ttis) { return inputs->digest(ttis); };
  spec.params.integer("enbs", kEnbs)
      .integer("ues_per_enb", kUesPerEnb)
      .str("traffic", "half full-buffer, half 1.5 Mb/s CBR")
      .str("channel", "seeded fading, mean SINR 4..20 dB, 3 dB sd, 20 ms coherence")
      .integer("link_delay_us", kLinkDelayUs)
      .integer("schedule_ahead_sf", kScheduleAhead)
      .integer("shards", 1)
      .integer("app_workers_per_shard", 0)
      .integer("report_period_ttis", 1)
      .str("app", "remote_scheduler (shard 0)");
  spec.setups = 15;
  spec.max_setup_ttis = 200;
  spec.warmup_ttis = 200;
  spec.window_ttis = 1000;
  spec.block_ttis = 256;
  return spec;
}

}  // namespace loopbench
