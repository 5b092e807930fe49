// Wire fast-path benchmark and allocation gate (docs/wire_fastpath.md).
//
// Measures ns/op and heap allocations per message for the control-channel
// hot path: nested-message encode (legacy per-sub-message encoders vs. the
// arena/backpatch path), envelope decode (fresh vs. decode_into reuse),
// frame + reassemble, the full encode->frame->reassemble->decode loop,
// ingest->apply through a one-shard Coordinator over sim transports, the
// snapshot publish of one dirty agent, and the agent side of the loop:
// report build (collect + encode) and command decode + apply.
//
// Allocations are counted by a global operator-new hook, so the numbers are
// exact, deterministic, and independent of machine speed -- which is why
// tools/check.sh gates on them (not on ns/op):
//
//   bench_wire --check=bench/wire_alloc_baseline.txt   # exit 1 on regression
//   bench_wire BENCH_wire.json                         # report + JSON
//
// The legacy encode baseline replicates the pre-change encoding (a fresh
// WireEncoder per sub-message, copied into the parent via field_bytes,
// body vector + Envelope::encode) and is verified byte-identical to the
// arena path before anything is timed.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "agent/reports.h"
#include "bench/bench_common.h"
#include "controller/coordinator.h"
#include "controller/rib_snapshot.h"
#include "net/framing.h"
#include "net/sim_transport.h"
#include "phy/channel.h"
#include "proto/messages.h"
#include "stack/enodeb.h"
#include "util/logging.h"

// ------------------------------------------------- counting operator new --
// Every allocation path funnels through these overrides; the counter is the
// ground truth the --check gate compares against the checked-in baseline.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace flexran;
using Clock = std::chrono::steady_clock;

double ns_per_op(std::uint64_t ops, Clock::time_point start, Clock::time_point end) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  return static_cast<double>(ns) / static_cast<double>(ops);
}

// ------------------------------------------------------------- workload --

constexpr std::size_t kUes = 16;
constexpr std::size_t kRsrpPerUe = 2;
constexpr std::uint32_t kXid = 77;
constexpr std::uint64_t kEncodeIters = 20'000;
constexpr std::uint64_t kLoopIters = 20'000;
constexpr std::uint64_t kWarmup = 200;
constexpr std::uint64_t kIngestIters = 2'000;
constexpr std::uint64_t kAgentIters = 2'000;
constexpr int kScheduleAhead = 8;

proto::StatsReply make_reply() {
  proto::StatsReply reply;
  reply.request_id = 1;
  reply.subframe = 123456;
  for (std::size_t i = 0; i < kUes; ++i) {
    proto::UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(70 + i);
    ue.bsr_bytes = {0, 1500, 0, static_cast<std::uint32_t>(200 * i)};
    ue.phr_db = 17;
    ue.wb_cqi = static_cast<std::uint8_t>(3 + i % 12);
    ue.rlc_queue_bytes = static_cast<std::uint32_t>(4096 + 17 * i);
    ue.dl_bytes_delivered = 100'000 + 3 * i;
    ue.ul_bytes_received = 40'000 + i;
    ue.ul_buffer_bytes = static_cast<std::uint32_t>(300 * i);
    for (std::size_t m = 0; m < kRsrpPerUe; ++m) {
      ue.rsrp.push_back({static_cast<lte::CellId>(1 + m), -90.0 - static_cast<double>(i)});
    }
    reply.ue_reports.push_back(std::move(ue));
  }
  proto::CellStatsReport cell;
  cell.cell_id = 1;
  cell.dl_prbs_in_use = 42;
  cell.ul_prbs_in_use = 11;
  cell.active_ues = kUes;
  reply.cell_reports.push_back(cell);
  return reply;
}

// Pre-change nested encode, kept verbatim as the in-bench baseline: one
// fresh WireEncoder per sub-message, copied into its parent via
// field_bytes, then an owned body vector copied into Envelope::encode.
// Field order matches src/proto/messages.cpp so output stays byte-identical.
void legacy_encode_ue_report(proto::WireEncoder& parent, int field,
                             const proto::UeStatsReport& r) {
  proto::WireEncoder enc;
  enc.field_varint(1, r.rnti);
  for (auto bsr : r.bsr_bytes) enc.field_varint(2, bsr);
  enc.field_svarint(3, r.phr_db);
  enc.field_varint(4, r.wb_cqi);
  enc.field_varint(5, r.rlc_queue_bytes);
  if (r.pending_harq != 0) enc.field_varint(6, r.pending_harq);
  if (r.dl_bytes_delivered != 0) enc.field_varint(7, r.dl_bytes_delivered);
  if (r.ul_bytes_received != 0) enc.field_varint(8, r.ul_bytes_received);
  if (r.wb_cqi_protected != 0) enc.field_varint(9, r.wb_cqi_protected);
  if (r.ul_buffer_bytes != 0) enc.field_varint(11, r.ul_buffer_bytes);
  for (const auto& m : r.rsrp) {
    proto::WireEncoder sub;
    sub.field_varint(1, m.cell_id);
    sub.field_svarint(2, std::llround(m.rsrp_dbm * 100.0));
    enc.field_bytes(10, sub.bytes());
  }
  parent.field_bytes(field, enc.bytes());
}

std::vector<std::uint8_t> legacy_encode(const proto::StatsReply& reply) {
  proto::WireEncoder body;
  body.field_varint(1, reply.request_id);
  body.field_svarint(2, reply.subframe);
  for (const auto& r : reply.ue_reports) legacy_encode_ue_report(body, 3, r);
  for (const auto& c : reply.cell_reports) {
    proto::WireEncoder enc;
    enc.field_varint(1, c.cell_id);
    enc.field_double(2, c.noise_interference_dbm);
    enc.field_varint(3, c.dl_prbs_in_use);
    enc.field_varint(4, c.ul_prbs_in_use);
    enc.field_varint(5, c.active_ues);
    body.field_bytes(4, enc.bytes());
  }
  proto::Envelope envelope;
  envelope.type = proto::MessageType::stats_reply;
  envelope.xid = kXid;
  envelope.body = body.take();
  return envelope.encode();
}

// --------------------------------------------------------------- results --

struct Results {
  double encode_legacy_ns = 0.0;
  double encode_arena_ns = 0.0;
  double encode_speedup = 0.0;
  double encode_arena_allocs = 0.0;
  double decode_fresh_ns = 0.0;
  double decode_into_ns = 0.0;
  double decode_into_allocs = 0.0;
  double frame_ns = 0.0;
  double frame_allocs = 0.0;
  double loop_ns = 0.0;
  double loop_allocs = 0.0;
  double ingest_ns = 0.0;
  double ingest_allocs = 0.0;
  double publish_ns = 0.0;
  double publish_allocs = 0.0;
  double report_build_ns = 0.0;
  double report_build_allocs = 0.0;
  double command_apply_ns = 0.0;
  double command_apply_allocs = 0.0;
  std::size_t wire_bytes = 0;
};

bool verify_byte_identity(const proto::StatsReply& reply) {
  const auto legacy = legacy_encode(reply);
  proto::WireEncoder enc;
  proto::Envelope header;
  header.xid = kXid;
  proto::encode_envelope(enc, header, reply);
  const auto arena = enc.bytes();
  if (legacy.size() != arena.size() ||
      !std::equal(legacy.begin(), legacy.end(), arena.begin())) {
    std::fprintf(stderr, "FATAL: arena encode is not byte-identical to the legacy path "
                         "(%zu vs %zu bytes)\n", arena.size(), legacy.size());
    return false;
  }
  const auto packed = proto::pack(reply, kXid);
  if (packed.size() != legacy.size() ||
      !std::equal(packed.begin(), packed.end(), legacy.begin())) {
    std::fprintf(stderr, "FATAL: pack() diverged from the legacy encoding\n");
    return false;
  }
  return true;
}

Results run_bench() {
  Results res;
  const proto::StatsReply reply = make_reply();

  // ---- nested-message encode: legacy vs arena ----
  {
    volatile std::size_t sink = 0;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kEncodeIters; ++i) sink = legacy_encode(reply).size();
    auto t1 = Clock::now();
    res.encode_legacy_ns = ns_per_op(kEncodeIters, t0, t1);
    (void)sink;
  }
  {
    proto::WireEncoder enc;
    proto::Envelope header;
    header.xid = kXid;
    volatile std::size_t sink = 0;
    for (std::uint64_t i = 0; i < kWarmup; ++i) {
      enc.clear();
      proto::encode_envelope(enc, header, reply);
    }
    const auto allocs0 = g_allocs.load();
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kEncodeIters; ++i) {
      enc.clear();
      proto::encode_envelope(enc, header, reply);
      sink = enc.size();
    }
    auto t1 = Clock::now();
    res.encode_arena_ns = ns_per_op(kEncodeIters, t0, t1);
    res.encode_arena_allocs =
        static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(kEncodeIters);
    res.wire_bytes = enc.size();
    (void)sink;
  }
  res.encode_speedup = res.encode_legacy_ns / res.encode_arena_ns;

  const auto wire = legacy_encode(reply);

  // ---- decode: fresh structs vs decode_into reuse ----
  {
    volatile std::uint32_t sink = 0;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLoopIters; ++i) {
      auto envelope = proto::Envelope::decode(wire);
      auto decoded = proto::StatsReply::decode_body(envelope->body);
      sink = decoded->request_id;
    }
    auto t1 = Clock::now();
    res.decode_fresh_ns = ns_per_op(kLoopIters, t0, t1);
    (void)sink;
  }
  {
    proto::Envelope envelope;
    proto::StatsReply decoded;
    volatile std::uint32_t sink = 0;
    for (std::uint64_t i = 0; i < kWarmup; ++i) {
      (void)proto::Envelope::decode_into(wire, envelope);
      (void)proto::StatsReply::decode_body_into(envelope.body, decoded);
    }
    const auto allocs0 = g_allocs.load();
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLoopIters; ++i) {
      (void)proto::Envelope::decode_into(wire, envelope);
      (void)proto::StatsReply::decode_body_into(envelope.body, decoded);
      sink = decoded.request_id;
    }
    auto t1 = Clock::now();
    res.decode_into_ns = ns_per_op(kLoopIters, t0, t1);
    res.decode_into_allocs =
        static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(kLoopIters);
    (void)sink;
  }

  // ---- frame + reassemble (4 frames batched per feed, like a socket wake) --
  {
    constexpr std::uint64_t kBatch = 4;
    util::ByteBuffer framed;
    net::FrameAssembler assembler;
    std::uint64_t frames = 0;
    auto on_frame = [&frames](std::span<const std::uint8_t>) { ++frames; };
    auto once = [&] {
      framed.clear();
      for (std::uint64_t b = 0; b < kBatch; ++b) net::frame_into(framed, wire);
      (void)assembler.feed(framed.contents(), on_frame);
    };
    for (std::uint64_t i = 0; i < kWarmup; ++i) once();
    const auto allocs0 = g_allocs.load();
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLoopIters / kBatch; ++i) once();
    auto t1 = Clock::now();
    const std::uint64_t messages = (kLoopIters / kBatch) * kBatch;
    res.frame_ns = ns_per_op(messages, t0, t1);
    res.frame_allocs =
        static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(messages);
    if (frames == 0) std::printf("unreachable\n");
  }

  // ---- full wire loop: encode -> frame -> reassemble -> decode ----
  {
    proto::WireEncoder enc;
    proto::Envelope header;
    header.xid = kXid;
    util::ByteBuffer framed;
    net::FrameAssembler assembler;
    proto::Envelope rx;
    proto::StatsReply decoded;
    std::uint64_t received = 0;
    // Materialize the FrameFn once: constructing a std::function from a
    // multi-capture lambda on every feed() call would itself allocate.
    const net::FrameAssembler::FrameFn on_frame = [&](std::span<const std::uint8_t> payload) {
      (void)proto::Envelope::decode_into(payload, rx);
      (void)proto::StatsReply::decode_body_into(rx.body, decoded);
      ++received;
    };
    auto once = [&] {
      enc.clear();
      proto::encode_envelope(enc, header, reply);
      framed.clear();
      net::frame_into(framed, enc.bytes());
      (void)assembler.feed(framed.contents(), on_frame);
    };
    for (std::uint64_t i = 0; i < kWarmup; ++i) once();
    const auto allocs0 = g_allocs.load();
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLoopIters; ++i) once();
    auto t1 = Clock::now();
    res.loop_ns = ns_per_op(kLoopIters, t0, t1);
    res.loop_allocs =
        static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(kLoopIters);
    if (received == 0) std::printf("unreachable\n");
  }

  // ---- ingest -> apply through a one-shard Coordinator ----
  {
    sim::Simulator sim;
    ctrl::CoordinatorConfig config;
    config.shard.auto_configure = false;
    config.shard.echo_period_cycles = 0;
    ctrl::Coordinator coordinator(sim, config);
    auto pair = net::make_sim_transport_pair(sim);
    coordinator.add_agent(*pair.a);

    proto::Hello hello;
    hello.enb_id = 1;
    hello.name = "bench";
    (void)pair.b->send(net::TrafficClass::session, proto::pack(hello, 1));
    sim.run();
    coordinator.run_cycle();

    const auto send_one = [&] {
      (void)pair.b->send(net::TrafficClass::stats, wire);
      sim.run();
      coordinator.run_cycle();
    };
    for (std::uint64_t i = 0; i < kWarmup; ++i) send_one();
    const auto allocs0 = g_allocs.load();
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIngestIters; ++i) send_one();
    auto t1 = Clock::now();
    res.ingest_ns = ns_per_op(kIngestIters, t0, t1);
    res.ingest_allocs =
        static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(kIngestIters);

    // ---- snapshot publish of the one dirty agent the ingest stage fed ----
    const ctrl::Rib& rib = coordinator.shard(0).rib();
    std::set<ctrl::AgentId> all;
    for (const auto& [id, agent] : rib.agents()) {
      (void)agent;
      all.insert(id);
    }
    ctrl::SnapshotStore store;
    store.publish(rib, all, true);
    for (std::uint64_t i = 0; i < kWarmup; ++i) store.publish(rib, all, false);
    const auto publish_allocs0 = g_allocs.load();
    auto p0 = Clock::now();
    for (std::uint64_t i = 0; i < kIngestIters; ++i) store.publish(rib, all, false);
    auto p1 = Clock::now();
    res.publish_ns = ns_per_op(kIngestIters, p0, p1);
    res.publish_allocs = static_cast<double>(g_allocs.load() - publish_allocs0) /
                         static_cast<double>(kIngestIters);
  }

  // ---- agent side: an eNodeB with kUes attached UEs under the remote
  // scheduler, its agent connected over a sim link ----
  {
    sim::Simulator sim;
    stack::EnodebDataPlane dp(sim, lte::EnbConfig{});
    for (std::size_t i = 0; i < kUes; ++i) {
      stack::UeProfile profile;
      profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(10);
      dp.add_ue(std::move(profile));
    }
    agent::AgentConfig agent_config;
    agent_config.enb_id = 1;
    agent_config.name = "bench";
    agent_config.dl_scheduler = "remote";
    agent::Agent agent(sim, dp, agent_config);
    auto link = net::make_sim_transport_pair(sim);
    link.a->set_receive_callback([](std::span<const std::uint8_t>) {});
    agent.connect(*link.b);
    sim.run();
    for (std::int64_t sf = 1; sf <= 10; ++sf) {  // let every UE attach
      dp.subframe_begin(sf);
      dp.subframe_end(sf);
    }
    sim.run();

    // Report build: collect the per-TTI full StatsReply and encode it.
    {
      agent::ReportsManager reports(agent.api());
      proto::StatsRequest request;
      request.request_id = 1;
      request.mode = proto::ReportMode::periodic;
      request.periodicity_ttis = 1;
      std::int64_t subframe = 10;
      reports.register_request(request, subframe);
      proto::WireEncoder enc;
      const proto::Envelope header;
      std::uint64_t built = 0;
      const auto build = [&] {
        for (const auto& reply : reports.collect(subframe++)) {
          enc.clear();
          proto::encode_envelope(enc, header, reply);
          ++built;
        }
      };
      for (std::uint64_t i = 0; i < kWarmup; ++i) build();
      built = 0;
      const auto allocs0 = g_allocs.load();
      auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kAgentIters; ++i) build();
      auto t1 = Clock::now();
      res.report_build_ns = ns_per_op(built, t0, t1);
      res.report_build_allocs =
          static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(built);
    }

    // Command decode + apply: DL MAC configs for the next kScheduleAhead
    // subframes, delivered over the link into the agent's decision queue.
    {
      const auto rntis = dp.ue_rntis();
      std::vector<std::vector<std::uint8_t>> frames;
      for (int k = 0; k < kScheduleAhead; ++k) {
        proto::DlMacConfig command;
        command.cell_id = lte::EnbConfig{}.cells[0].cell_id;
        command.target_subframe = 1000 + k;
        for (std::size_t u = 0; u < 4 && u < rntis.size(); ++u) {
          lte::DlDci dci;
          dci.rnti = rntis[u];
          dci.rbs.set_range(static_cast<int>(6 * u), 6);
          dci.mcs = 10;
          command.dcis.push_back(dci);
        }
        frames.push_back(proto::pack(command));
      }
      std::uint64_t delivered = 0;
      const auto deliver = [&] {
        (void)link.a->send(net::TrafficClass::command, frames[delivered++ % frames.size()]);
        sim.run();
      };
      for (std::uint64_t i = 0; i < kWarmup; ++i) deliver();
      const auto allocs0 = g_allocs.load();
      auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kAgentIters; ++i) deliver();
      auto t1 = Clock::now();
      res.command_apply_ns = ns_per_op(kAgentIters, t0, t1);
      res.command_apply_allocs =
          static_cast<double>(g_allocs.load() - allocs0) / static_cast<double>(kAgentIters);
    }
  }

  return res;
}

// ------------------------------------------------------------ check mode --

std::map<std::string, double> load_baseline(const std::string& path) {
  std::map<std::string, double> baseline;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key) {
    if (key.empty() || key[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (in >> value) baseline[key] = value;
  }
  return baseline;
}

int check_against(const Results& res, const std::string& path) {
  const auto baseline = load_baseline(path);
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_wire --check: no baseline entries in %s\n", path.c_str());
    return 1;
  }
  const std::map<std::string, double> measured = {
      {"encode_arena_allocs_per_msg", res.encode_arena_allocs},
      {"decode_into_allocs_per_msg", res.decode_into_allocs},
      {"frame_reassemble_allocs_per_msg", res.frame_allocs},
      {"wire_loop_allocs_per_msg", res.loop_allocs},
      {"ingest_apply_allocs_per_msg", res.ingest_allocs},
      {"snapshot_publish_allocs_per_dirty_agent", res.publish_allocs},
      {"agent_report_build_allocs_per_report", res.report_build_allocs},
      {"agent_command_apply_allocs_per_command", res.command_apply_allocs},
  };
  int failures = 0;
  for (const auto& [key, limit] : baseline) {
    auto it = measured.find(key);
    if (it == measured.end()) {
      std::fprintf(stderr, "bench_wire --check: unknown baseline key %s\n", key.c_str());
      ++failures;
      continue;
    }
    if (it->second > limit + 1e-9) {
      std::fprintf(stderr,
                   "bench_wire --check: %s regressed: %.4f allocs/msg > baseline %.4f\n",
                   key.c_str(), it->second, limit);
      ++failures;
    } else {
      std::printf("bench_wire --check: %-40s %.4f <= %.4f ok\n", key.c_str(), it->second,
                  limit);
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Logger::instance().set_level(util::LogLevel::error);

  std::string check_path;
  std::string json_path;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(std::strlen("--check="));
    } else if (arg.empty() || arg.front() == '-' || !json_path.empty()) {
      usage_error = true;
    } else {
      json_path = arg;
    }
  }
  if (usage_error || (check_path.empty() && json_path.empty())) {
    std::fprintf(stderr,
                 "usage: bench_wire OUT.json                 # report, JSON to OUT.json\n"
                 "       bench_wire --check=BASELINE [OUT]   # allocation gate, exit 1 on "
                 "regression\n");
    return 2;
  }

  const proto::StatsReply reply = make_reply();
  if (!verify_byte_identity(reply)) return 1;

  const Results res = run_bench();

  if (!check_path.empty()) return check_against(res, check_path);

  flexran::bench::print_header("Wire fast path: ns/op and allocations per message");
  flexran::bench::print_note(
      "StatsReply with 16 UE reports (2 RSRP entries each) + 1 cell report.\n"
      "Legacy = pre-change nested encode (fresh encoder per sub-message,\n"
      "field_bytes copies, owned body vector); arena = reused encoder with\n"
      "length-prefix backpatching. Outputs verified byte-identical.");
  std::printf("\nwire size: %zu bytes\n\n", res.wire_bytes);
  std::printf("%-34s %10s %14s\n", "stage", "ns/op", "allocs/msg");
  std::printf("%-34s %10.1f %14s\n", "encode nested (legacy)", res.encode_legacy_ns, "-");
  std::printf("%-34s %10.1f %14.4f\n", "encode nested (arena)", res.encode_arena_ns,
              res.encode_arena_allocs);
  std::printf("%-34s %9.2fx %14s\n", "encode speedup", res.encode_speedup, "-");
  std::printf("%-34s %10.1f %14s\n", "decode (fresh structs)", res.decode_fresh_ns, "-");
  std::printf("%-34s %10.1f %14.4f\n", "decode (decode_into reuse)", res.decode_into_ns,
              res.decode_into_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "frame + reassemble", res.frame_ns, res.frame_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "wire loop (enc+frame+asm+dec)", res.loop_ns,
              res.loop_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "ingest -> apply (Coordinator)", res.ingest_ns,
              res.ingest_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "snapshot publish (1 dirty agent)", res.publish_ns,
              res.publish_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "agent report build + encode", res.report_build_ns,
              res.report_build_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "agent command decode + apply", res.command_apply_ns,
              res.command_apply_allocs);

  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      ",\"wire_bytes\":%zu,"
      "\"encode\":{\"legacy_ns\":%.2f,\"arena_ns\":%.2f,\"speedup\":%.3f,"
      "\"arena_allocs_per_msg\":%.4f},"
      "\"decode\":{\"fresh_ns\":%.2f,\"into_ns\":%.2f,\"into_allocs_per_msg\":%.4f},"
      "\"frame\":{\"ns\":%.2f,\"allocs_per_msg\":%.4f},"
      "\"wire_loop\":{\"ns\":%.2f,\"allocs_per_msg\":%.4f},"
      "\"ingest_apply\":{\"ns\":%.2f,\"allocs_per_msg\":%.4f},"
      "\"snapshot_publish\":{\"ns\":%.2f,\"allocs_per_dirty_agent\":%.4f},"
      "\"agent_report_build\":{\"ns\":%.2f,\"allocs_per_report\":%.4f},"
      "\"agent_command_apply\":{\"ns\":%.2f,\"allocs_per_command\":%.4f}}",
      res.wire_bytes, res.encode_legacy_ns, res.encode_arena_ns, res.encode_speedup,
      res.encode_arena_allocs, res.decode_fresh_ns, res.decode_into_ns, res.decode_into_allocs,
      res.frame_ns, res.frame_allocs, res.loop_ns, res.loop_allocs, res.ingest_ns,
      res.ingest_allocs, res.publish_ns, res.publish_allocs, res.report_build_ns,
      res.report_build_allocs, res.command_apply_ns, res.command_apply_allocs);
  const std::string json =
      "{" +
      flexran::bench::json_header(
          "wire_fastpath", "ues=16 rsrp=2 cells=1 encode_iters=20000 loop_iters=20000") +
      buffer;
  std::ofstream out(json_path);
  out << json << "\n";
  std::printf("\n%s\nJSON written to %s\n", json.c_str(), json_path.c_str());
  return 0;
}
