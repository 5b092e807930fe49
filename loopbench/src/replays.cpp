// Per-layer replays for the traced run. Layers that are reachable only
// inside Coordinator::run_cycle are replayed on their own with the
// workload's captured messages and RIB state: proto decode/encode and
// WireDecoder::read_varint, framing, one-agent ingest -> apply (the
// bench_wire method) and SnapshotStore::publish. Each stage is timed and
// its heap allocations are counted exactly.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "controller/rib_snapshot.h"
#include "harness.h"
#include "net/framing.h"
#include "net/sim_transport.h"
#include "proto/wire.h"

namespace loopbench {
namespace {

using namespace flexran;

/// Replays are time-boxed per stage.
constexpr std::int64_t kStageBudgetNs = 150'000'000;

struct Measured {
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  double ns_per_op() const { return ops == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(ops); }
  double allocs_per_op() const {
    return ops == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(ops);
  }
};

/// Runs `round` (which returns the operations it did) a few times to warm
/// up, then until the stage budget is spent or `max_rounds` ran.
template <typename F>
Measured measure_rounds(int warmup, std::uint64_t max_rounds, F&& round) {
  for (int i = 0; i < warmup; ++i) round();
  Measured m;
  const std::uint64_t allocs0 = allocations();
  const std::int64_t start = now_ns();
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    m.ops += round();
    if (now_ns() - start >= kStageBudgetNs) break;
  }
  m.ns = now_ns() - start;
  m.allocs = allocations() - allocs0;
  return m;
}

/// Offsets of every varint (tags, values, lengths) in a message, found by
/// walking it as nested protobuf: a length-delimited field counts as a
/// sub-message when its payload parses as one entirely.
bool collect_varints(std::span<const std::uint8_t> data, std::size_t base,
                     std::vector<std::size_t>& out) {
  std::size_t pos = 0;
  const auto read = [&](std::uint64_t& value) {
    value = 0;
    for (int shift = 0; shift < 64 && pos < data.size(); shift += 7) {
      const std::uint8_t byte = data[pos++];
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return false;
  };
  while (pos < data.size()) {
    out.push_back(base + pos);
    std::uint64_t tag = 0;
    if (!read(tag) || (tag >> 3) == 0) return false;
    std::uint64_t value = 0;
    switch (tag & 7) {
      case 0:
        out.push_back(base + pos);
        if (!read(value)) return false;
        break;
      case 1:
        pos += 8;
        break;
      case 5:
        pos += 4;
        break;
      case 2: {
        out.push_back(base + pos);
        if (!read(value) || value > data.size() - pos) return false;
        const std::size_t mark = out.size();
        if (!collect_varints(data.subspan(pos, value), base + pos, out)) out.resize(mark);
        pos += value;
        break;
      }
      default:
        return false;
    }
    if (pos > data.size()) return false;
  }
  return true;
}

/// The 16-UE StatsReply of bench/bench_wire.cpp, for the calibration
/// replay (same field values).
std::vector<std::uint8_t> bench_wire_reply() {
  proto::StatsReply reply;
  reply.request_id = 1;
  reply.subframe = 123456;
  for (std::size_t i = 0; i < 16; ++i) {
    proto::UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(70 + i);
    ue.bsr_bytes = {0, 1500, 0, static_cast<std::uint32_t>(200 * i)};
    ue.phr_db = 17;
    ue.wb_cqi = static_cast<std::uint8_t>(3 + i % 12);
    ue.rlc_queue_bytes = static_cast<std::uint32_t>(4096 + 17 * i);
    ue.dl_bytes_delivered = 100'000 + 3 * i;
    ue.ul_bytes_received = 40'000 + i;
    ue.ul_buffer_bytes = static_cast<std::uint32_t>(300 * i);
    for (std::size_t m = 0; m < 2; ++m) {
      ue.rsrp.push_back({static_cast<lte::CellId>(1 + m), -90.0 - static_cast<double>(i)});
    }
    reply.ue_reports.push_back(std::move(ue));
  }
  proto::CellStatsReport cell;
  cell.cell_id = 1;
  cell.dl_prbs_in_use = 42;
  cell.ul_prbs_in_use = 11;
  cell.active_ues = 16;
  reply.cell_reports.push_back(cell);
  return proto::pack(reply, 77);
}

/// SnapshotStore::publish of `rib` with `dirty` agents changed, after one
/// full publish; per publish.
Measured replay_publish(const ctrl::Rib& rib, const std::set<ctrl::AgentId>& dirty) {
  ctrl::SnapshotStore store;
  std::set<ctrl::AgentId> all;
  for (const auto& [id, agent] : rib.agents()) {
    (void)agent;
    all.insert(id);
  }
  store.publish(rib, all, true);
  return measure_rounds(3, 2000, [&] {
    store.publish(rib, dirty, false);
    return std::uint64_t{1};
  });
}

/// Allocation split of one agent's report through the control plane.
struct IngestSplit {
  Measured deliver;  // SimTransport send + Simulator::run: delivery, decode, ingest push
  Measured cycle;    // Coordinator::run_cycle: apply, publish, cycle machinery
  Measured publish;  // SnapshotStore::publish of the one-agent RIB alone

  JsonObject json() const {
    JsonObject j;
    j.num("deliver_decode_push", deliver.allocs_per_op())
        .num("apply_and_cycle", cycle.allocs_per_op() - publish.allocs_per_op())
        .num("publish", publish.allocs_per_op())
        .num("total", deliver.allocs_per_op() + cycle.allocs_per_op())
        .num("ingest_apply_us", (deliver.ns_per_op() + cycle.ns_per_op()) / 1e3)
        .integer("reports", static_cast<std::int64_t>(deliver.ops));
    return j;
  }
};

/// The bench_wire ingest method: one agent over a sim link into a
/// one-shard Coordinator, one report and one cycle at a time.
IngestSplit replay_ingest(const std::vector<std::vector<std::uint8_t>>& frames,
                          ctrl::MasterConfig master) {
  if (frames.empty()) throw std::runtime_error("no reports captured for the ingest replay");
  master.auto_configure = false;
  master.echo_period_cycles = 0;
  master.default_stats_request.reset();
  master.subscribe_events.clear();
  master.task_manager.workers = 0;
  ctrl::CoordinatorConfig config;
  config.shards = 1;
  config.shard = master;
  sim::Simulator sim;
  ctrl::Coordinator coordinator(sim, config);
  auto link = net::make_sim_transport_pair(sim);
  const ctrl::AgentId id = coordinator.add_agent(*link.a, 1);
  proto::Hello hello;
  hello.enb_id = 1;
  hello.name = "replay";
  (void)link.b->send(net::TrafficClass::session, proto::pack(hello, 1));
  sim.run();
  coordinator.run_cycle();

  IngestSplit split;
  std::size_t next = 0;
  const auto one = [&](bool record) {
    const auto& frame = frames[next++ % frames.size()];
    std::uint64_t a0 = allocations();
    std::int64_t t0 = now_ns();
    (void)link.b->send(net::TrafficClass::stats, frame);
    sim.run();
    std::int64_t t1 = now_ns();
    std::uint64_t a1 = allocations();
    coordinator.run_cycle();
    const std::int64_t t2 = now_ns();
    const std::uint64_t a2 = allocations();
    if (!record) return;
    split.deliver.ns += t1 - t0;
    split.deliver.allocs += a1 - a0;
    ++split.deliver.ops;
    split.cycle.ns += t2 - t1;
    split.cycle.allocs += a2 - a1;
    ++split.cycle.ops;
  };
  for (int i = 0; i < 200; ++i) one(false);
  const std::int64_t start = now_ns();
  for (int i = 0; i < 20'000 && now_ns() - start < kStageBudgetNs; ++i) one(true);
  split.publish = replay_publish(coordinator.shard(0).rib(), {id});
  return split;
}

}  // namespace

void replay_layers(Workload& w, LayerMetrics& metrics, JsonObject& details) {
  const WireSamples samples = w.samples();
  if (samples.reports.empty()) throw std::runtime_error("no reports captured for replay");

  // ---- proto: decode into warm structs, and read_varint alone.
  {
    proto::Envelope envelope;
    proto::StatsReply reply;
    std::uint64_t round_bytes = 0;
    for (const auto& report : samples.reports) round_bytes += report.size();
    const Measured m = measure_rounds(3, 1'000'000, [&] {
      for (const auto& report : samples.reports) {
        (void)proto::Envelope::decode_into(report, envelope);
        (void)proto::StatsReply::decode_body_into(envelope.body, reply);
      }
      return static_cast<std::uint64_t>(samples.reports.size());
    });
    const double rounds = static_cast<double>(m.ops) / static_cast<double>(samples.reports.size());
    metrics["proto.decode_ns_per_byte"] =
        static_cast<double>(m.ns) / (rounds * static_cast<double>(round_bytes));
    metrics["proto.decode_allocs_per_msg"] = m.allocs_per_op();
    details.integer("bytes_per_report",
                    static_cast<std::int64_t>(round_bytes / samples.reports.size()));
  }
  {
    std::vector<std::pair<std::size_t, std::size_t>> varints;  // (message, offset)
    for (std::size_t i = 0; i < samples.reports.size(); ++i) {
      std::vector<std::size_t> offsets;
      (void)collect_varints(samples.reports[i], 0, offsets);
      for (const auto offset : offsets) varints.emplace_back(i, offset);
    }
    const Measured m = measure_rounds(3, 1'000'000, [&] {
      for (const auto& [message, offset] : varints) {
        const std::span<const std::uint8_t> bytes(samples.reports[message]);
        proto::WireDecoder decoder(bytes.subspan(offset));
        (void)decoder.read_varint();
      }
      return static_cast<std::uint64_t>(varints.size());
    });
    metrics["proto.read_varint_ns"] = m.ns_per_op();
    details.integer("varints_per_report",
                    static_cast<std::int64_t>(varints.size() / samples.reports.size()));
  }

  // ---- proto: encode of the workload's reports and commands.
  {
    std::vector<proto::StatsReply> replies;
    for (const auto& report : samples.reports) {
      auto envelope = proto::Envelope::decode(report);
      if (!envelope.ok()) throw std::runtime_error("captured report does not decode");
      auto reply = proto::StatsReply::decode_body(envelope->body);
      if (!reply.ok()) throw std::runtime_error("captured report body does not decode");
      replies.push_back(std::move(*reply));
    }
    proto::WireEncoder enc;
    const proto::Envelope header{};
    std::uint64_t round_bytes = 0;
    const Measured m = measure_rounds(3, 1'000'000, [&] {
      round_bytes = 0;
      for (const auto& reply : replies) {
        enc.clear();
        proto::encode_envelope(enc, header, reply);
        round_bytes += enc.size();
      }
      for (const auto& command : samples.commands) {
        enc.clear();
        proto::encode_envelope(enc, header, command);
        round_bytes += enc.size();
      }
      return static_cast<std::uint64_t>(replies.size() + samples.commands.size());
    });
    const double rounds =
        static_cast<double>(m.ops) / static_cast<double>(replies.size() + samples.commands.size());
    metrics["proto.encode_ns_per_byte"] =
        static_cast<double>(m.ns) / (rounds * static_cast<double>(round_bytes));
    metrics["proto.encode_allocs_per_msg"] = m.allocs_per_op();
    details.integer("encoded_commands", static_cast<std::int64_t>(samples.commands.size()));
  }

  // ---- net: frame + reassemble, 4 frames per feed (one socket wake).
  {
    util::ByteBuffer framed;
    net::FrameAssembler assembler;
    std::uint64_t frames = 0;
    const net::FrameAssembler::FrameFn on_frame = [&frames](std::span<const std::uint8_t>) {
      ++frames;
    };
    const Measured m = measure_rounds(3, 1'000'000, [&] {
      for (std::size_t i = 0; i < samples.reports.size(); i += 4) {
        framed.clear();
        const std::size_t end = std::min(samples.reports.size(), i + 4);
        for (std::size_t k = i; k < end; ++k) net::frame_into(framed, samples.reports[k]);
        (void)assembler.feed(framed.contents(), on_frame);
      }
      return static_cast<std::uint64_t>(samples.reports.size());
    });
    metrics["net.frame_ns_per_msg"] = m.ns_per_op();
    metrics["net.frame_allocs_per_msg"] = m.allocs_per_op();
  }

  // ---- controller: one-agent ingest -> apply with the workload's reports,
  // and the bench_wire 16-UE report as a calibration of the method.
  {
    const IngestSplit split = replay_ingest(samples.one_agent, w.master_config());
    metrics["net.deliver_allocs_per_report"] = split.deliver.allocs_per_op();
    metrics["controller.ingest_apply_us_per_report"] =
        (split.deliver.ns_per_op() + split.cycle.ns_per_op()) / 1e3;
    metrics["controller.ingest_apply_allocs_per_report"] =
        split.deliver.allocs_per_op() + split.cycle.allocs_per_op();
    metrics["controller.apply_cycle_allocs_per_report"] =
        split.cycle.allocs_per_op() - split.publish.allocs_per_op();
    details.obj("ingest_split", split.json());

    const IngestSplit calibration = replay_ingest({bench_wire_reply()}, w.master_config());
    details.obj("calibration_16ue", calibration.json());
  }

  // ---- controller: publish of the live RIB with the last cycle's dirty set.
  {
    auto& coordinator = w.coordinator();
    coordinator.quiesce();
    double allocs = 0.0;
    double us = 0.0;
    std::size_t dirty = 0;
    for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
      const auto agents = w.last_dirty(s);
      dirty += agents.size();
      const Measured m = replay_publish(coordinator.shard(s).rib(), agents);
      allocs += m.allocs_per_op();
      us += m.ns_per_op() / 1e3;
    }
    metrics["controller.publish_allocs_per_cycle"] = allocs;
    details.num("publish_replay_us_per_cycle", us)
        .integer("publish_dirty_agents", static_cast<std::int64_t>(dirty));
  }
}

}  // namespace loopbench
