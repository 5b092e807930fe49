// Simulated-agent fleets: the per_tti_ingest and sharded_fleet workloads.
//
// The agents are traffic generators at the far end of in-process
// SimTransport links. Every agent replays seeded StatsReply reports built
// from pre-encoded UE entries, so producing a report at run time costs a
// header patch and a copy rather than an encode, and the generator never
// becomes the bottleneck. The bytes are exactly what proto's encoder emits
// for the same report; FleetInputs checks that before any run.
#include <algorithm>
#include <stdexcept>

#include "apps/monitoring.h"
#include "harness.h"
#include "lte/tables.h"
#include "net/sim_transport.h"
#include "proto/wire.h"

namespace loopbench {
namespace {

using namespace flexran;

struct FleetShape {
  const char* name;
  std::size_t agents;
  std::size_t ues;
  std::size_t shards;
  int workers;
  /// Report period in TTIs; agent i reports at TTIs t with t % period ==
  /// i % period, so the fleet's reports are spread evenly over the period.
  int period;
  /// Pre-encoded report variants per agent; each TTI picks one by seed.
  std::size_t variants;
  /// The app is the Coordinator-level worst-CQI scan (else a per-shard
  /// monitoring app).
  bool global_scan;
};

constexpr FleetShape kPerTtiIngest{"per_tti_ingest", 128, 32, 1, 0, 1, 8, false};
constexpr FleetShape kShardedFleet{"sharded_fleet", 1024, 8, 2, 1, 4, 8, true};

constexpr std::size_t kRsrpPerUe = 2;
constexpr lte::Rnti kFirstRnti = 70;
constexpr std::uint32_t kRequestId = 1;
constexpr std::size_t kScanCommands = 8;
constexpr std::int64_t kScanAheadTtis = 8;

/// Seeded contents of one UE entry of one report variant. Pure function of
/// its arguments, so the oracle regenerates what it expects.
proto::UeStatsReport make_ue_report(std::uint64_t seed, std::size_t agent, std::size_t variant,
                                    std::size_t ue) {
  std::uint64_t state = mix64(seed ^ mix64((agent << 40) ^ (variant << 20) ^ ue));
  const auto next = [&](std::uint64_t bound) {
    state = mix64(state);
    return state % bound;
  };
  proto::UeStatsReport report;
  report.rnti = static_cast<lte::Rnti>(kFirstRnti + ue);
  report.bsr_bytes = {0, static_cast<std::uint32_t>(next(3000)), 0,
                      static_cast<std::uint32_t>(next(500))};
  report.phr_db = static_cast<std::int32_t>(next(40)) - 10;
  report.wb_cqi = static_cast<std::uint8_t>(1 + next(15));
  report.rlc_queue_bytes = static_cast<std::uint32_t>(next(200'000));
  report.pending_harq = static_cast<std::uint32_t>(next(3));
  report.dl_bytes_delivered = 1'000'000 * (agent + 1) + 10'000 * variant + next(10'000);
  report.ul_bytes_received = next(100'000);
  report.ul_buffer_bytes = static_cast<std::uint32_t>(next(30'000));
  for (std::size_t m = 0; m < kRsrpPerUe; ++m) {
    report.rsrp.push_back({static_cast<lte::CellId>(1 + m),
                           -70.0 - static_cast<double>(next(5000)) / 100.0});
  }
  return report;
}

proto::CellStatsReport make_cell_report(std::uint64_t seed, std::size_t agent,
                                        std::size_t variant, std::size_t ues) {
  const std::uint64_t state = mix64(seed ^ mix64((agent << 40) ^ (variant << 20) ^ 0xce11));
  proto::CellStatsReport cell;
  cell.cell_id = 1;
  cell.dl_prbs_in_use = static_cast<std::uint32_t>(state % 50);
  cell.ul_prbs_in_use = static_cast<std::uint32_t>((state >> 8) % 50);
  cell.active_ues = static_cast<std::uint32_t>(ues);
  return cell;
}

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// The generated inputs of a fleet: for every (agent, variant) the encoded
/// UE and cell entries of a StatsReply body, ready to be framed.
class FleetInputs {
 public:
  FleetInputs(const FleetShape& shape, std::uint64_t seed) : shape_(shape), seed_(seed) {
    entries_.reserve(shape.agents * shape.variants);
    proto::WireEncoder enc;
    for (std::size_t agent = 0; agent < shape.agents; ++agent) {
      for (std::size_t v = 0; v < shape.variants; ++v) {
        const proto::StatsReply reply = make_reply(agent, v, 0);
        enc.clear();
        reply.encode_body(enc);
        const auto body = enc.bytes();
        // request_id (field 1) and subframe (field 2) lead the body;
        // frame() writes them per report.
        const std::uint8_t head[] = {0x08, kRequestId, 0x10, 0x00};
        if (body.size() < 4 || !std::equal(head, head + 4, body.begin())) {
          throw std::runtime_error("unexpected StatsReply body layout");
        }
        entries_.emplace_back(body.begin() + 4, body.end());
      }
    }
    verify();
  }

  const FleetShape& shape() const { return shape_; }
  std::uint64_t seed() const { return seed_; }

  std::size_t variant_for(std::size_t agent, std::int64_t tti) const {
    return mix64(seed_ ^ (static_cast<std::uint64_t>(agent) << 32) ^
                 static_cast<std::uint64_t>(tti)) %
           shape_.variants;
  }

  proto::StatsReply make_reply(std::size_t agent, std::size_t variant, std::int64_t tti) const {
    proto::StatsReply reply;
    reply.request_id = kRequestId;
    reply.subframe = tti;
    for (std::size_t ue = 0; ue < shape_.ues; ++ue) {
      reply.ue_reports.push_back(make_ue_report(seed_, agent, variant, ue));
    }
    reply.cell_reports.push_back(make_cell_report(seed_, agent, variant, shape_.ues));
    return reply;
  }

  /// Writes the envelope of `agent`'s report for `tti` into `out`.
  void frame(std::vector<std::uint8_t>& out, std::size_t agent, std::int64_t tti) const {
    const auto& entry = entries_[agent * shape_.variants + variant_for(agent, tti)];
    const std::uint64_t subframe = proto::zigzag_encode(tti);
    const std::size_t body_size = 3 + proto::varint_size(subframe) + entry.size();
    out.clear();
    out.push_back(0x08);  // version
    append_varint(out, proto::kProtocolVersion);
    out.push_back(0x10);  // type
    append_varint(out, static_cast<std::uint64_t>(proto::MessageType::stats_reply));
    out.push_back(0x22);  // body
    append_varint(out, body_size);
    out.push_back(0x08);
    out.push_back(static_cast<std::uint8_t>(kRequestId));
    out.push_back(0x10);
    append_varint(out, subframe);
    out.insert(out.end(), entry.begin(), entry.end());
  }

  /// Digest of every report the fleet sends in TTIs 1..ttis.
  std::uint64_t digest(int ttis) const {
    std::uint64_t hash = kFnvBasis;
    std::vector<std::uint8_t> out;
    for (std::int64_t t = 1; t <= ttis; ++t) {
      for (std::size_t i = first_reporter(t); i < shape_.agents;
           i += static_cast<std::size_t>(shape_.period)) {
        frame(out, i, t);
        hash = fnv1a(hash, out.data(), out.size());
      }
    }
    return hash;
  }

  std::size_t first_reporter(std::int64_t tti) const {
    return static_cast<std::size_t>(tti % shape_.period);
  }

 private:
  /// The patched frames must be byte-identical to proto's own encoding.
  void verify() const {
    std::vector<std::uint8_t> out;
    for (std::size_t agent = 0; agent < std::min<std::size_t>(shape_.agents, 8); ++agent) {
      for (const std::int64_t tti : {1, 63, 64, 8191, 8192, 1'000'000}) {
        frame(out, agent, tti);
        const auto expected =
            proto::pack(make_reply(agent, variant_for(agent, tti), tti), 0);
        if (out != expected) {
          throw std::runtime_error("generated report differs from proto encoding");
        }
      }
    }
  }

  FleetShape shape_;
  std::uint64_t seed_;
  std::vector<std::vector<std::uint8_t>> entries_;
};

/// Network-wide app on the composite view: every cycle it scans all UEs of
/// all agents, picks the agents whose worst UE has the lowest CQI, and sends
/// each a DL grant for that UE (routed by the Coordinator).
class WorstCqiApp final : public ctrl::App {
 public:
  WorstCqiApp() {
    command_.dcis.resize(1);
    worst_.reserve(2048);
  }
  std::string_view name() const override { return "worst_cqi_scan"; }
  int priority() const override { return 1; }

  void on_cycle(std::int64_t, ctrl::NorthboundApi& api) override {
    const auto snapshot = api.rib_snapshot();
    worst_.clear();
    for (const auto& [id, agent] : snapshot->agents()) {
      Candidate c{id};
      for (const auto& [cell_id, cell] : agent->cells) {
        for (const auto& [rnti, ue] : cell.ues) {
          if (ue.stats.wb_cqi < c.cqi) {
            c.cqi = ue.stats.wb_cqi;
            c.rnti = rnti;
            c.cell = cell_id;
          }
        }
      }
      if (c.rnti != lte::kInvalidRnti) worst_.push_back(c);
    }
    const std::size_t n = std::min(kScanCommands, worst_.size());
    std::partial_sort(worst_.begin(), worst_.begin() + static_cast<std::ptrdiff_t>(n),
                      worst_.end(), [](const Candidate& a, const Candidate& b) {
                        return a.cqi != b.cqi ? a.cqi < b.cqi : a.agent < b.agent;
                      });
    command_.target_subframe = api.now() / sim::kTtiUs + kScanAheadTtis;
    for (std::size_t k = 0; k < n; ++k) {
      const Candidate& c = worst_[k];
      command_.cell_id = c.cell;
      auto& dci = command_.dcis.front();
      dci.rnti = c.rnti;
      dci.rbs.clear();
      dci.rbs.set_range(0, 25);
      dci.mcs = lte::cqi_to_mcs(std::max(1, c.cqi));
      (void)api.send_dl_mac_config(c.agent, command_);
    }
  }

 private:
  struct Candidate {
    ctrl::AgentId agent = 0;
    int cqi = 16;
    lte::Rnti rnti = lte::kInvalidRnti;
    lte::CellId cell = 0;
  };
  std::vector<Candidate> worst_;
  proto::DlMacConfig command_;
};

ctrl::MasterConfig fleet_master_config(const FleetShape& shape) {
  ctrl::MasterConfig config;
  config.auto_configure = false;  // the simulated agents send no hello
  config.echo_period_cycles = 0;  // ...and answer no echo
  config.task_manager.workers = shape.workers;
  return config;
}

class Fleet final : public Workload {
 public:
  Fleet(const FleetInputs& inputs, Context& context)
      : in_(inputs),
        shape_(inputs.shape()),
        context_(context),
        coordinator_(sim_, coordinator_config(shape_)),
        last_tti_(shape_.agents, 0) {
    links_.reserve(shape_.agents);
    for (std::size_t i = 0; i < shape_.agents; ++i) {
      links_.push_back(net::make_sim_transport_pair(sim_));
      ids_.push_back(coordinator_.add_agent(*links_.back().a, i + 1));
      links_.back().b->set_receive_callback(
          [this, i](std::span<const std::uint8_t> data) { on_agent_frame(i, data); });
    }
    const std::size_t max_id = *std::max_element(ids_.begin(), ids_.end());
    context_.log.per_agent.assign(max_id + 1, {});
    received_.assign(max_id + 1, {});
    if (shape_.global_scan) {
      coordinator_.add_app(std::make_unique<TimedApp>(std::make_unique<WorstCqiApp>(),
                                                      context_.tracer, context_.log, true));
    } else {
      coordinator_.shard(0).add_app(std::make_unique<TimedApp>(
          std::make_unique<apps::MonitoringApp>(1), context_.tracer, context_.log, false));
    }
    if (context_.options.inject == "drop_report") drop_tti_ = 60;
    if (context_.options.inject == "unrouted_command") context_.log.swallow_at = 100;
    frame_.reserve(4096);
  }

  ~Fleet() override { coordinator_.quiesce(); }

  void step(std::int64_t tti, Probe& probe) override {
    probe.system(SpanName::run_until, [&] { sim_.run_until(tti * sim::kTtiUs); });
    probe.observe_queues(coordinator_);
    probe.cycle([&] { coordinator_.run_cycle(); });
    probe.observe_ages(coordinator_, tti, !shape_.global_scan);
    probe.generator([&] { send_reports(tti); });
    last_step_ = tti;
  }

  bool ready() const override {
    const auto snapshot = coordinator_.rib_snapshot();
    return snapshot->agent_count() == shape_.agents &&
           snapshot->ue_count() == shape_.agents * shape_.ues;
  }

  void drain(std::int64_t tti) override {
    sim_.run_until(tti * sim::kTtiUs);
    coordinator_.run_cycle();
    coordinator_.quiesce();
    sim_.run_until((tti + 1) * sim::kTtiUs);
  }

  void check(Outcome& out) const override {
    const auto& log = context_.log;
    out.attempted = reports_sent_ + log.sent;
    const std::uint64_t applied = coordinator_.updates_applied();
    const std::uint64_t failed_reports = reports_sent_ > applied ? reports_sent_ - applied : 0;
    out.expect(applied == reports_sent_, "updates_applied (" + std::to_string(applied) +
                                             ") equals reports sent (" +
                                             std::to_string(reports_sent_) + ")");
    std::uint64_t decode_errors = 0;
    for (std::size_t s = 0; s < coordinator_.shard_count(); ++s) {
      decode_errors += coordinator_.shard(s).rx_decode_errors();
    }
    out.expect(decode_errors == 0, "rx_decode_errors is 0 (got " +
                                       std::to_string(decode_errors) + ")");

    const auto snapshot = coordinator_.rib_snapshot();
    out.expect(snapshot->agent_count() == shape_.agents,
               "snapshot holds all " + std::to_string(shape_.agents) + " agents (got " +
                   std::to_string(snapshot->agent_count()) + ")");
    out.expect(snapshot->ue_count() == shape_.agents * shape_.ues,
               "snapshot holds all " + std::to_string(shape_.agents * shape_.ues) +
                   " UEs (got " + std::to_string(snapshot->ue_count()) + ")");
    std::size_t stale_agents = 0;
    for (std::size_t i = 0; i < shape_.agents; ++i) {
      if (!holds_last_report(*snapshot, i)) ++stale_agents;
    }
    out.expect(stale_agents == 0, std::to_string(stale_agents) +
                                      " agents' RIB entries differ from their last report");

    std::uint64_t failed_commands = 0;
    std::size_t misrouted_agents = 0;
    for (std::size_t id = 0; id < received_.size(); ++id) {
      const auto& sent = log.per_agent[id];
      const auto& got = received_[id];
      if (sent == got) continue;
      ++misrouted_agents;
      failed_commands += std::max<std::uint64_t>(
          1, sent.count > got.count ? sent.count - got.count : got.count - sent.count);
    }
    out.expect(misrouted_agents == 0 && unexpected_frames_ == 0,
               "every routed command arrives on its owning agent's link (" +
                   std::to_string(misrouted_agents) + " agents differ, " +
                   std::to_string(unexpected_frames_) + " unexpected frames)");
    out.failed = failed_reports + failed_commands;
  }

  ctrl::Coordinator& coordinator() override { return coordinator_; }
  bool global_app() const override { return shape_.global_scan; }

  std::uint64_t bytes_up() const override {
    std::uint64_t total = 0;
    for (const auto& link : links_) total += link.b->bytes_sent();
    return total;
  }
  std::uint64_t bytes_down() const override {
    std::uint64_t total = 0;
    for (const auto& link : links_) total += link.a->bytes_sent();
    return total;
  }

  std::set<ctrl::AgentId> last_dirty(std::size_t shard) const override {
    // The last cycle (drain) applied the reports sent in the last step.
    std::set<ctrl::AgentId> dirty;
    for (std::size_t i = in_.first_reporter(last_step_); i < shape_.agents;
         i += static_cast<std::size_t>(shape_.period)) {
      if (coordinator_.shard_of(ids_[i]) == shard) dirty.insert(ids_[i]);
    }
    return dirty;
  }

  WireSamples samples() const override {
    WireSamples samples;
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < std::min<std::size_t>(shape_.agents, 128); ++i) {
      in_.frame(out, i, last_step_ + static_cast<std::int64_t>(i));
      samples.reports.push_back(out);
    }
    for (std::int64_t t = 1; t <= 64; ++t) {
      in_.frame(out, 0, t);
      samples.one_agent.push_back(out);
    }
    samples.commands = context_.log.samples;
    return samples;
  }

  ctrl::MasterConfig master_config() const override { return fleet_master_config(shape_); }

 private:
  static ctrl::CoordinatorConfig coordinator_config(const FleetShape& shape) {
    ctrl::CoordinatorConfig config;
    config.shards = shape.shards;
    config.shard = fleet_master_config(shape);
    return config;
  }

  void send_reports(std::int64_t tti) {
    for (std::size_t i = in_.first_reporter(tti); i < shape_.agents;
         i += static_cast<std::size_t>(shape_.period)) {
      in_.frame(frame_, i, tti);
      last_tti_[i] = tti;
      ++reports_sent_;
      // Injected defect: the report is counted as sent but never leaves.
      if (tti == drop_tti_ && i == in_.first_reporter(tti)) continue;
      (void)links_[i].b->send(net::TrafficClass::stats, frame_);
    }
  }

  /// The simulated agent's receive path: tallies DL MAC configs by target
  /// subframe without allocating (the tally is compared with what the app
  /// sent to this agent).
  void on_agent_frame(std::size_t index, std::span<const std::uint8_t> data) {
    if (!proto::Envelope::decode_into(data, rx_).ok() ||
        rx_.type != proto::MessageType::dl_mac_config) {
      ++unexpected_frames_;
      return;
    }
    proto::WireDecoder dec(rx_.body);
    std::int64_t target = -1;
    while (!dec.done()) {
      auto header = dec.next_field();
      if (!header.ok()) break;
      if (header->field == 2 && header->type == proto::WireType::varint) {
        auto value = dec.read_varint();
        if (value.ok()) target = proto::zigzag_decode(*value);
        break;
      }
      if (!dec.skip(header->type).ok()) break;
    }
    received_[ids_[index]].add(target);
  }

  bool holds_last_report(const ctrl::RibSnapshot& snapshot, std::size_t i) const {
    const auto* agent = snapshot.find_agent(ids_[i]);
    if (agent == nullptr || agent->last_subframe != last_tti_[i]) return false;
    const std::size_t variant = in_.variant_for(i, last_tti_[i]);
    for (std::size_t ue = 0; ue < shape_.ues; ++ue) {
      const auto expected = make_ue_report(in_.seed(), i, variant, ue);
      const auto* node = snapshot.find_ue(ids_[i], expected.rnti);
      if (node == nullptr) return false;
      const auto& got = node->stats;
      if (got.wb_cqi != expected.wb_cqi || got.rlc_queue_bytes != expected.rlc_queue_bytes ||
          got.dl_bytes_delivered != expected.dl_bytes_delivered ||
          got.bsr_bytes != expected.bsr_bytes || got.ul_buffer_bytes != expected.ul_buffer_bytes ||
          got.rsrp.size() != expected.rsrp.size()) {
        return false;
      }
    }
    return true;
  }

  const FleetInputs& in_;
  const FleetShape& shape_;
  Context& context_;
  sim::Simulator sim_;
  ctrl::Coordinator coordinator_;
  std::vector<net::SimTransportPair> links_;
  std::vector<ctrl::AgentId> ids_;
  std::vector<std::int64_t> last_tti_;
  std::vector<CommandLog::Tally> received_;
  std::vector<std::uint8_t> frame_;
  proto::Envelope rx_;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t unexpected_frames_ = 0;
  std::int64_t last_step_ = 0;
  std::int64_t drop_tti_ = -1;
};

WorkloadSpec fleet_spec(const FleetShape& shape, Context& context) {
  auto inputs = std::make_shared<const FleetInputs>(shape, context.options.seed);
  WorkloadSpec spec;
  spec.make = [inputs, &context] { return std::make_unique<Fleet>(*inputs, context); };
  spec.input_digest = [inputs](int ttis) { return inputs->digest(ttis); };
  spec.params.integer("agents", static_cast<std::int64_t>(shape.agents))
      .integer("ues_per_agent", static_cast<std::int64_t>(shape.ues))
      .integer("rsrp_per_ue", kRsrpPerUe)
      .integer("shards", static_cast<std::int64_t>(shape.shards))
      .integer("app_workers_per_shard", shape.workers)
      .integer("report_period_ttis", shape.period)
      .integer("report_variants", static_cast<std::int64_t>(shape.variants))
      .str("app", shape.global_scan ? "worst_cqi_scan (Coordinator, composite view)"
                                    : "monitoring (shard 0, every cycle)")
      .integer("link_delay_us", 0);
  // Set-up takes milliseconds; enough repetitions make its median steady.
  spec.setups = 21;
  spec.max_setup_ttis = 4 * shape.period + 4;
  spec.warmup_ttis = 40;
  spec.window_ttis = shape.global_scan ? 200 : 300;
  spec.block_ttis = shape.global_scan ? 48 : 64;
  return spec;
}

}  // namespace

WorkloadSpec per_tti_ingest(Context& context) { return fleet_spec(kPerTtiIngest, context); }
WorkloadSpec sharded_fleet(Context& context) { return fleet_spec(kShardedFleet, context); }

}  // namespace loopbench
