// Decode hardening (docs/fault_tolerance.md): every wire decoder must
// survive hostile input -- truncated frames, random byte corruption, and
// reordered fields -- returning a clean util::Result instead of crashing
// or reading out of bounds. The whole suite runs under the ASan/UBSan leg
// of tools/check.sh, so an out-of-bounds read or UB in a decoder fails the
// gate even when the decode happens to "succeed".
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lte/abs.h"
#include "proto/checkpoint.h"
#include "proto/messages.h"
#include "proto/wire.h"
#include "seeded.h"

namespace {

using namespace flexran;
using namespace flexran::proto;
using flexran::seeded::Digest;
using flexran::seeded::Prng;

using Bytes = std::vector<std::uint8_t>;
/// Decodes, then re-encodes what it accepted (nullopt when it refused).
using Reencode = std::function<std::optional<Bytes>(std::span<const std::uint8_t>)>;

/// One decoder surface under test: a valid encoding plus type-erased
/// decoders that re-encode what they accepted. `reencode` decodes into a
/// fresh struct; `warm()` makes a decoder that decodes every call into one
/// long-lived struct, first filled by decoding `dirt`. Most tests only look
/// at success/failure (the value itself is irrelevant -- the sanitizers
/// judge the memory behavior); the digest guard below looks at the
/// re-encoded value too.
struct Surface {
  std::string name;
  Bytes valid;
  Reencode reencode;
  std::function<Reencode(std::span<const std::uint8_t> dirt)> warm;

  bool decode(std::span<const std::uint8_t> data) const { return reencode(data).has_value(); }
};

/// Builds a surface from the message's codec: `encode(m)`, a fresh
/// `decode(data)` and a warm `decode_into(data, m)`.
template <typename M, typename Encode, typename Decode, typename DecodeInto>
Surface make_surface(std::string name, const M& sample, Encode encode, Decode decode,
                     DecodeInto decode_into) {
  Surface surface{std::move(name), encode(sample), {}, {}};
  surface.reencode = [=](std::span<const std::uint8_t> data) -> std::optional<Bytes> {
    auto decoded = decode(data);
    if (!decoded.ok()) return std::nullopt;
    return encode(*decoded);
  };
  surface.warm = [=](std::span<const std::uint8_t> dirt) -> Reencode {
    auto target = std::make_shared<M>();
    (void)decode_into(dirt, *target);
    return [=](std::span<const std::uint8_t> data) -> std::optional<Bytes> {
      if (!decode_into(data, *target).ok()) return std::nullopt;
      return encode(*target);
    };
  };
  return surface;
}

template <typename M>
Surface body_surface(std::string name, const M& sample) {
  return make_surface(
      std::move(name), sample,
      [](const M& message) {
        WireEncoder enc;
        message.encode_body(enc);
        return enc.take();
      },
      [](std::span<const std::uint8_t> data) { return M::decode_body(data); },
      [](std::span<const std::uint8_t> data, M& out) { return decode_body_into(data, out); });
}

/// Surface for a message with a top-level encode()/decode()/decode_into().
template <typename M>
Surface message_surface(std::string name, const M& sample) {
  return make_surface(
      std::move(name), sample, [](const M& message) { return message.encode(); },
      [](std::span<const std::uint8_t> data) { return M::decode(data); },
      [](std::span<const std::uint8_t> data, M& out) { return M::decode_into(data, out); });
}

// Every sample sets each field to a value other than its default and holds
// at least two entries in every repeated field, so each field -- and each
// omission rule -- is on the wire for the mutations to hit. The one
// exception is MasterCheckpoint::version, which decode refuses unless it is
// kVersion (its default).
std::vector<Surface> all_surfaces() {
  std::vector<Surface> surfaces;

  Envelope envelope;
  envelope.version = 2;
  envelope.type = MessageType::stats_reply;
  envelope.xid = 77;
  envelope.epoch = 3;
  envelope.queue_status = 1;
  envelope.throttle_hint = 4;
  envelope.ts_us = 123456;
  envelope.ts_echo_us = 123000;
  envelope.master_epoch = 2;
  envelope.retry_after_ms = 40;
  envelope.body = {0x08, 0x01};
  surfaces.push_back(message_surface("Envelope", envelope));

  Hello hello;
  hello.enb_id = 17;
  hello.name = "macro-17";
  hello.n_cells = 2;
  hello.capabilities = {"mac", "rrc", "pdcp"};
  hello.epoch = 5;
  surfaces.push_back(body_surface("Hello", hello));

  EchoRequest echo_request;
  echo_request.subframe = 1234;
  echo_request.timestamp_us = 987654;
  surfaces.push_back(body_surface("EchoRequest", echo_request));

  EchoReply echo_reply;
  echo_reply.subframe = 1234;
  echo_reply.echoed_timestamp_us = 987654;
  surfaces.push_back(body_surface("EchoReply", echo_reply));

  EnbConfigReply enb_config;
  enb_config.enb_id = 17;
  for (int i = 0; i < 2; ++i) {
    CellConfigMsg cell;
    cell.cell_id = static_cast<lte::CellId>(i + 1);
    cell.bandwidth_mhz = 20.0;
    cell.duplex = 1;
    cell.tx_mode = 3;
    cell.antenna_ports = 2;
    cell.band = 7;
    cell.pci = static_cast<std::uint16_t>(100 + i);
    enb_config.cells.push_back(cell);
  }
  surfaces.push_back(body_surface("EnbConfigReply", enb_config));

  UeConfigReply ue_config;
  for (int i = 0; i < 2; ++i) {
    UeConfigMsg ue;
    ue.rnti = static_cast<lte::Rnti>(70 + i);
    ue.primary_cell = 1;
    ue.tx_mode = 2;
    ue.ue_category = 6;
    ue.carrier_aggregation = true;
    ue_config.ues.push_back(ue);
  }
  surfaces.push_back(body_surface("UeConfigReply", ue_config));

  LcConfigReply lc_config;
  for (int i = 0; i < 2; ++i) {
    LcConfigMsg lc;
    lc.rnti = static_cast<lte::Rnti>(70 + i);
    lc.lcid = 4;
    lc.lc_group = 2;
    lc_config.channels.push_back(lc);
  }
  surfaces.push_back(body_surface("LcConfigReply", lc_config));

  StatsRequest stats_request;
  stats_request.request_id = 9;
  stats_request.mode = ReportMode::periodic;
  stats_request.periodicity_ttis = 5;
  stats_request.flags = stats_flags::kBsr | stats_flags::kCqi;
  stats_request.ues = {70, 71};
  surfaces.push_back(body_surface("StatsRequest", stats_request));

  StatsReply stats_reply;
  stats_reply.request_id = 9;
  stats_reply.subframe = 4321;
  for (int i = 0; i < 2; ++i) {
    UeStatsReport report;
    report.rnti = static_cast<lte::Rnti>(70 + i);
    report.bsr_bytes = {100, 200, 300, 50};
    report.phr_db = 12;
    report.wb_cqi = 12;
    report.wb_cqi_protected = 9;
    report.rlc_queue_bytes = 4000;
    report.pending_harq = 2;
    report.dl_bytes_delivered = 150'000;
    report.ul_bytes_received = 40'000;
    report.ul_buffer_bytes = 900;
    report.rsrp.push_back({1, -95.5});
    report.rsrp.push_back({2, -101.0});
    stats_reply.ue_reports.push_back(report);
    CellStatsReport cell_report;
    cell_report.cell_id = static_cast<lte::CellId>(1 + i);
    cell_report.noise_interference_dbm = -95.0;
    cell_report.dl_prbs_in_use = 40;
    cell_report.ul_prbs_in_use = 12;
    cell_report.active_ues = 2;
    stats_reply.cell_reports.push_back(cell_report);
  }
  surfaces.push_back(body_surface("StatsReply", stats_reply));

  DlMacConfig dl_mac;
  dl_mac.cell_id = 1;
  dl_mac.target_subframe = 5000;
  for (int i = 0; i < 2; ++i) {
    lte::DlDci dci;
    dci.rnti = static_cast<lte::Rnti>(70 + i);
    dci.rbs.set_range(50 + 20 * i, 20);  // both RB words in use
    dci.mcs = 20;
    dci.harq_pid = 3;
    dci.new_data = false;
    dci.carrier = 1;
    dl_mac.dcis.push_back(dci);
  }
  surfaces.push_back(body_surface("DlMacConfig", dl_mac));

  UlMacConfig ul_mac;
  ul_mac.cell_id = 1;
  ul_mac.target_subframe = 5000;
  for (int i = 0; i < 2; ++i) {
    lte::UlDci ul_dci;
    ul_dci.rnti = static_cast<lte::Rnti>(70 + i);
    ul_dci.rbs.set_range(60 + 10 * i, 8);
    ul_dci.mcs = 12;
    ul_mac.dcis.push_back(ul_dci);
  }
  surfaces.push_back(body_surface("UlMacConfig", ul_mac));

  HandoverCommand handover;
  handover.rnti = 70;
  handover.source_cell = 1;
  handover.target_cell = 2;
  surfaces.push_back(body_surface("HandoverCommand", handover));

  AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(2);
  abs.mute_during_abs = false;
  surfaces.push_back(body_surface("AbsConfig", abs));

  CarrierRestriction restriction;
  restriction.cell_id = 1;
  restriction.max_dl_prbs = 30;
  surfaces.push_back(body_surface("CarrierRestriction", restriction));

  DrxConfig drx;
  drx.rnti = 70;
  drx.cycle_ttis = 40;
  drx.on_duration_ttis = 8;
  surfaces.push_back(body_surface("DrxConfig", drx));

  ScellCommand scell;
  scell.rnti = 70;
  scell.activate = false;
  surfaces.push_back(body_surface("ScellCommand", scell));

  EventNotification event;
  event.event = EventType::vsf_failure;
  event.subframe = 6000;
  event.rnti = 70;
  event.cell_id = 2;
  event.xid = 12;
  event.module = "mac";
  event.vsf = "dl_ue_scheduler";
  event.implementation = "faulty_crash";
  event.failure_kind = VsfFailureKind::exception;
  event.failure_count = 3;
  event.detail = "threw std::runtime_error";
  event.overload_state = 1;
  surfaces.push_back(body_surface("EventNotification", event));

  EventSubscription subscription;
  subscription.events = {EventType::ue_attach, EventType::rach_attempt};
  subscription.enable = false;
  surfaces.push_back(body_surface("EventSubscription", subscription));

  ControlDelegation delegation;
  delegation.module = "mac";
  delegation.vsf = "dl_ue_scheduler";
  delegation.implementation = "local_pf";
  delegation.version = 2;
  delegation.blob = {0xde, 0xad, 0xbe, 0xef};
  surfaces.push_back(body_surface("ControlDelegation", delegation));

  PolicyReconfiguration policy;
  policy.yaml = "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n";
  surfaces.push_back(body_surface("PolicyReconfiguration", policy));

  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 3;
  checkpoint.saved_at_us = 2'000'000;
  checkpoint.shard = 1;
  checkpoint.agent_ids = {1, 4};
  for (std::uint32_t id : {1u, 4u}) {
    CheckpointAgent agent;
    agent.id = id;
    agent.name = "macro-" + std::to_string(id);
    agent.capabilities = {"mac", "rrc"};
    agent.epoch = 2;
    agent.config = enb_config;
    agent.reports = {stats_request, stats_request};
    agent.reports[1].request_id = 10;
    agent.policy_history = {policy.yaml, "mac: {}\n"};
    checkpoint.agents.push_back(agent);
  }
  surfaces.push_back(message_surface("MasterCheckpoint", checkpoint));

  return surfaces;
}

/// Splits a wire buffer into its top-level fields (header + value slices).
/// Returns empty on malformed input.
std::vector<std::vector<std::uint8_t>> split_fields(std::span<const std::uint8_t> data) {
  std::vector<std::vector<std::uint8_t>> fields;
  std::size_t pos = 0;
  auto varint = [&](std::uint64_t& out) {
    out = 0;
    int shift = 0;
    while (pos < data.size() && shift < 64) {
      const std::uint8_t byte = data[pos++];
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  };
  while (pos < data.size()) {
    const std::size_t start = pos;
    std::uint64_t tag = 0;
    if (!varint(tag)) return {};
    const auto type = static_cast<WireType>(tag & 0x7);
    std::uint64_t value = 0;
    switch (type) {
      case WireType::varint:
        if (!varint(value)) return {};
        break;
      case WireType::fixed64:
        if (pos + 8 > data.size()) return {};
        pos += 8;
        break;
      case WireType::length_delimited:
        if (!varint(value) || pos + value > data.size()) return {};
        pos += value;
        break;
      case WireType::fixed32:
        if (pos + 4 > data.size()) return {};
        pos += 4;
        break;
      default:
        return {};
    }
    fields.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(start),
                        data.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return fields;
}

// Every valid sample decodes; establishes the baseline the mutations start
// from (a surface whose valid form fails would make the fuzz moot).
TEST(ProtoRobustness, ValidSamplesDecode) {
  for (const auto& surface : all_surfaces()) {
    EXPECT_TRUE(surface.decode(surface.valid)) << surface.name;
    EXPECT_FALSE(surface.valid.empty()) << surface.name;
  }
}

// Truncation at every byte boundary: prefixes that cut a varint or a
// length-delimited field mid-value must fail cleanly; prefixes that land
// on a field boundary are simply shorter valid messages. Either way: no
// crash, no sanitizer finding.
TEST(ProtoRobustness, TruncationAtEveryPrefix) {
  for (const auto& surface : all_surfaces()) {
    for (std::size_t len = 0; len < surface.valid.size(); ++len) {
      std::span<const std::uint8_t> prefix(surface.valid.data(), len);
      (void)surface.decode(prefix);  // must return, not crash
    }
    // Cutting into the final field's value (not at a boundary) must fail.
    if (surface.valid.size() > 1) {
      std::span<const std::uint8_t> cut(surface.valid.data(), surface.valid.size() - 1);
      const auto fields = split_fields(cut);
      if (fields.empty()) {
        EXPECT_FALSE(surface.decode(cut)) << surface.name;
      }
    }
  }
}

// Deterministic byte corruption: single-byte overwrites at every offset
// with adversarial values, plus a PRNG flip sweep. Decoders may accept a
// mutation that still parses (field numbers are free), but must never
// crash or trip the sanitizers.
TEST(ProtoRobustness, CorruptedBytesNeverCrash) {
  for (const auto& surface : all_surfaces()) {
    for (const std::uint8_t poison : {0x00, 0xff, 0x80, 0x7f}) {
      for (std::size_t i = 0; i < surface.valid.size(); ++i) {
        std::vector<std::uint8_t> mutated = surface.valid;
        mutated[i] = poison;
        (void)surface.decode(mutated);
      }
    }
    // xorshift PRNG sweep: multi-byte corruption patterns.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 256; ++round) {
      std::vector<std::uint8_t> mutated = surface.valid;
      for (int flip = 0; flip < 4; ++flip) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        mutated[state % mutated.size()] ^=
            static_cast<std::uint8_t>(1u << ((state >> 8) % 8));
      }
      (void)surface.decode(mutated);
    }
  }
}

// Protobuf wire format guarantees field order is free: splitting a valid
// message into its top-level fields and re-joining them reversed must
// still decode (repeated-field contents may reorder; that is fine).
TEST(ProtoRobustness, ShuffledFieldsStillDecode) {
  for (const auto& surface : all_surfaces()) {
    const auto fields = split_fields(surface.valid);
    ASSERT_FALSE(fields.empty()) << surface.name;
    std::vector<std::uint8_t> reversed;
    for (auto it = fields.rbegin(); it != fields.rend(); ++it) {
      reversed.insert(reversed.end(), it->begin(), it->end());
    }
    EXPECT_TRUE(surface.decode(reversed)) << surface.name;
  }
}

// The checkpoint codec's versioning: a missing or future version field is
// a clean, typed refusal (a master must never warm-load state it cannot
// interpret).
TEST(ProtoRobustness, CheckpointVersionGate) {
  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 1;
  auto bytes = checkpoint.encode();
  ASSERT_TRUE(MasterCheckpoint::decode(bytes).ok());

  WireEncoder future;
  future.field_varint(1, MasterCheckpoint::kVersion + 1);
  auto future_bytes = future.take();
  auto decoded = MasterCheckpoint::decode(future_bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, util::Error::Code::unsupported);

  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(MasterCheckpoint::decode(empty).ok());
}

// Shard identity stamping (docs/sharded_control.md "Shard failover"): the
// shard index and the owned-agent-id roster round-trip, and a checkpoint
// that never carried a shard field -- anything written before sharding, or
// by a standalone master -- decodes back to the standalone sentinel (-1),
// not to shard 0.
TEST(ProtoRobustness, CheckpointShardIdentityRoundTrips) {
  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 2;
  checkpoint.shard = 3;
  checkpoint.agent_ids = {7, 11, 13};
  auto bytes = checkpoint.encode();
  auto decoded = MasterCheckpoint::decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard, 3);
  EXPECT_EQ(decoded->agent_ids, (std::vector<std::uint32_t>{7, 11, 13}));

  // Shard 0 must survive the +1 wire bias (0 is a real shard, not "unset").
  MasterCheckpoint zero;
  zero.shard = 0;
  auto zero_bytes = zero.encode();
  auto zero_decoded = MasterCheckpoint::decode(zero_bytes);
  ASSERT_TRUE(zero_decoded.ok());
  EXPECT_EQ(zero_decoded->shard, 0);

  // Standalone default: field stays off the wire, decodes back to -1.
  MasterCheckpoint standalone;
  standalone.incarnation = 1;
  auto standalone_bytes = standalone.encode();
  auto standalone_decoded = MasterCheckpoint::decode(standalone_bytes);
  ASSERT_TRUE(standalone_decoded.ok());
  EXPECT_EQ(standalone_decoded->shard, -1);
  EXPECT_TRUE(standalone_decoded->agent_ids.empty());
}

// A shard stamp that maps to no int shard index is corrupt or foreign. It
// must fail decoding instead of wrapping: 2^32 + 1 truncated to int would
// read as shard 0 and pass shard 0's wrong-shard gate.
TEST(ProtoRobustness, CheckpointOutOfRangeShardStampIsRejected) {
  for (const std::uint64_t stamp :
       {(std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 31) + 1, ~std::uint64_t{0}}) {
    WireEncoder enc;
    enc.field_varint(1, MasterCheckpoint::kVersion);
    enc.field_varint(5, stamp);
    auto decoded = MasterCheckpoint::decode(enc.bytes());
    ASSERT_FALSE(decoded.ok()) << "stamp=" << stamp << " shard=" << decoded->shard;
    EXPECT_EQ(decoded.error().code, util::Error::Code::decode_failure) << "stamp=" << stamp;
  }
  // The largest int shard index still round-trips.
  MasterCheckpoint top;
  top.shard = std::numeric_limits<int>::max();
  auto top_decoded = MasterCheckpoint::decode(top.encode());
  ASSERT_TRUE(top_decoded.ok());
  EXPECT_EQ(top_decoded->shard, std::numeric_limits<int>::max());
}

// A tag's field number is the varint's upper bits, up to 2^61 - 1 of them.
// Protobuf caps field numbers at 2^29 - 1; anything above that must be
// refused rather than narrowed, or field 2^32 + 3 would alias field 3 and
// silently overwrite a known field (here the envelope xid).
TEST(ProtoRobustness, FieldNumberAboveProtobufMaxIsRejected) {
  Envelope valid;
  valid.type = MessageType::echo_reply;
  valid.xid = 5;
  const auto base = valid.encode();
  const std::uint64_t kMaxField = (std::uint64_t{1} << 29) - 1;

  for (const std::uint64_t field :
       {(std::uint64_t{1} << 32) + 3, kMaxField + 1, (std::uint64_t{1} << 61) - 1}) {
    WireEncoder tail;
    tail.varint(field << 3 | static_cast<std::uint64_t>(WireType::varint));
    tail.varint(999);
    std::vector<std::uint8_t> wire = base;
    wire.insert(wire.end(), tail.bytes().begin(), tail.bytes().end());
    auto decoded = Envelope::decode(wire);
    ASSERT_FALSE(decoded.ok()) << "field=" << field << " xid=" << decoded->xid;
    EXPECT_EQ(decoded.error().code, util::Error::Code::decode_failure) << "field=" << field;
    EXPECT_EQ(decoded.error().message, "invalid field number") << "field=" << field;
  }

  // The protobuf maximum itself is a legal (unknown, skipped) field.
  WireEncoder tail;
  tail.varint(kMaxField << 3 | static_cast<std::uint64_t>(WireType::varint));
  tail.varint(999);
  std::vector<std::uint8_t> wire = base;
  wire.insert(wire.end(), tail.bytes().begin(), tail.bytes().end());
  auto decoded = Envelope::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->xid, 5u);
}

// The zero-allocation receive paths (docs/wire_fastpath.md) decode into a
// long-lived struct instead of a fresh one. A failed decode of hostile
// bytes must leave that struct reusable: the next valid decode_into must
// produce exactly what a fresh decode would, with no stale fields or stale
// repeated-entry tails leaking through.
TEST(ProtoRobustness, ReusedEnvelopeSurvivesHostileBytes) {
  Envelope valid;
  valid.type = MessageType::stats_reply;
  valid.xid = 42;
  valid.epoch = 7;
  valid.ts_us = 5555;
  valid.body = {0x08, 0x09, 0x10, 0x0c};
  const auto wire = valid.encode();

  Envelope reused;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    (void)Envelope::decode_into(std::span(wire.data(), len), reused);
  }
  for (const std::uint8_t poison : {0x00, 0xff, 0x80}) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[i] = poison;
      (void)Envelope::decode_into(mutated, reused);
    }
  }
  ASSERT_TRUE(Envelope::decode_into(wire, reused).ok());
  const auto fresh = Envelope::decode(wire);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(reused.type, fresh->type);
  EXPECT_EQ(reused.xid, fresh->xid);
  EXPECT_EQ(reused.epoch, fresh->epoch);
  EXPECT_EQ(reused.ts_us, fresh->ts_us);
  EXPECT_EQ(reused.body, fresh->body);
}

TEST(ProtoRobustness, ReusedStatsReplySurvivesHostileBytes) {
  StatsReply valid;
  valid.request_id = 3;
  valid.subframe = 900;
  for (int u = 0; u < 3; ++u) {
    UeStatsReport report;
    report.rnti = static_cast<lte::Rnti>(70 + u);
    report.bsr_bytes = {10, 20, 30, 40};
    report.wb_cqi = static_cast<std::uint8_t>(8 + u);
    report.rsrp.push_back({1, -90.0 - u});
    valid.ue_reports.push_back(report);
  }
  WireEncoder enc;
  valid.encode_body(enc);
  const auto wire = enc.take();

  StatsReply reused;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    (void)StatsReply::decode_body_into(std::span(wire.data(), len), reused);
  }
  for (const std::uint8_t poison : {0x00, 0xff, 0x80}) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[i] = poison;
      (void)StatsReply::decode_body_into(mutated, reused);
    }
  }
  ASSERT_TRUE(StatsReply::decode_body_into(wire, reused).ok());
  const auto fresh = StatsReply::decode_body(wire);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(reused.request_id, fresh->request_id);
  EXPECT_EQ(reused.subframe, fresh->subframe);
  ASSERT_EQ(reused.ue_reports.size(), fresh->ue_reports.size());
  for (std::size_t u = 0; u < fresh->ue_reports.size(); ++u) {
    EXPECT_EQ(reused.ue_reports[u].rnti, fresh->ue_reports[u].rnti);
    EXPECT_EQ(reused.ue_reports[u].wb_cqi, fresh->ue_reports[u].wb_cqi);
    EXPECT_EQ(reused.ue_reports[u].bsr_bytes, fresh->ue_reports[u].bsr_bytes);
    ASSERT_EQ(reused.ue_reports[u].rsrp.size(), fresh->ue_reports[u].rsrp.size());
  }
}

// ---------------------------------------------------- decode-equivalence guard
//
// A seeded mutation corpus over every decode surface: bit flips,
// truncations, inserted bytes and cross-surface splices. Each surface's
// decoder behavior on that corpus -- accept/refuse per mutant, the bytes an
// accepted mutant re-encodes to, and the bsr_overflow anomalies it counts --
// folds into one digest pinned below. A decoder rewrite that changes any
// verdict or any decoded value on any mutant changes the digest.

/// The mutants of `surfaces[index]`, in a fixed order for a fixed seed.
std::vector<std::vector<std::uint8_t>> mutants_of(const std::vector<Surface>& surfaces,
                                                   std::size_t index) {
  const auto& valid = surfaces[index].valid;
  Prng prng(0xf1e2a0u + index);
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t len = 0; len < valid.size(); ++len) {
    out.emplace_back(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
  }
  for (int round = 0; round < 256; ++round) {  // 1-4 bit flips
    auto mutant = valid;
    const std::size_t flips = 1 + prng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutant[prng.below(mutant.size())] ^= static_cast<std::uint8_t>(1u << prng.below(8));
    }
    out.push_back(std::move(mutant));
  }
  for (int round = 0; round < 128; ++round) {  // 1-3 inserted bytes
    auto mutant = valid;
    const std::size_t inserts = 1 + prng.below(3);
    for (std::size_t i = 0; i < inserts; ++i) {
      const auto at = static_cast<std::ptrdiff_t>(prng.below(mutant.size() + 1));
      mutant.insert(mutant.begin() + at, static_cast<std::uint8_t>(prng.next()));
    }
    out.push_back(std::move(mutant));
  }
  for (int round = 0; round < 128; ++round) {  // prefix of this + suffix of any
    const auto& donor = surfaces[prng.below(surfaces.size())].valid;
    const auto cut = static_cast<std::ptrdiff_t>(prng.below(valid.size() + 1));
    const auto from = static_cast<std::ptrdiff_t>(prng.below(donor.size() + 1));
    std::vector<std::uint8_t> mutant(valid.begin(), valid.begin() + cut);
    mutant.insert(mutant.end(), donor.begin() + from, donor.end());
    out.push_back(std::move(mutant));
  }
  return out;
}

std::uint64_t surface_digest(const std::vector<Surface>& surfaces, std::size_t index,
                             std::size_t* mutant_count) {
  Digest digest;
  const auto mutants = mutants_of(surfaces, index);
  *mutant_count = mutants.size();
  for (const auto& mutant : mutants) {
    const auto before = decode_anomalies().bsr_overflow.load();
    const auto reencoded = surfaces[index].reencode(mutant);
    digest.add(reencoded.has_value() ? 1 : 0);
    if (reencoded.has_value()) digest.add(*reencoded);
    digest.add(decode_anomalies().bsr_overflow.load() - before);
  }
  return digest.value();
}

// encode(decode(x)) is canonical: whatever value a decoder accepts re-encodes
// to bytes that decode and re-encode to themselves. A decoder that keeps
// something its encoder cannot write back (or an encoder that writes
// something its decoder reads differently) breaks this on some mutant.
TEST(ProtoRobustness, ReencodingIsAFixedPoint) {
  const auto surfaces = all_surfaces();
  for (std::size_t i = 0; i < surfaces.size(); ++i) {
    auto inputs = mutants_of(surfaces, i);
    inputs.push_back(surfaces[i].valid);
    std::size_t accepted = 0;
    for (const auto& input : inputs) {
      const auto once = surfaces[i].reencode(input);
      if (!once.has_value()) continue;
      ++accepted;
      const auto twice = surfaces[i].reencode(*once);
      ASSERT_TRUE(twice.has_value()) << surfaces[i].name << ": re-encoding does not decode";
      EXPECT_EQ(*twice, *once) << surfaces[i].name << " input of " << input.size() << " B";
    }
    EXPECT_GT(accepted, 1u) << surfaces[i].name;
  }
}

TEST(ProtoRobustness, MutantDecodeDigestsArePinned) {
  // Recorded from the hand-written decoders once every sample carried every
  // field (splice mutants take their tails from the other samples, so each
  // digest depends on all of them). A change here means some mutant now
  // decodes differently: a behavior change, not a refactor.
  const std::map<std::string, std::uint64_t> pinned = {
      {"Envelope", 0x932a9106f25919f6ull},  // 540 mutants
      {"Hello", 0xeb932291eaf3c8a6ull},  // 544 mutants
      {"EchoRequest", 0xa165f787b11fcac8ull},  // 519 mutants
      {"EchoReply", 0x6bd9b8e2589f1966ull},  // 519 mutants
      {"EnbConfigReply", 0x8d8eb7bf9b1a99a2ull},  // 560 mutants
      {"UeConfigReply", 0x455c97879a8164feull},  // 536 mutants
      {"LcConfigReply", 0x9d2dfcb990cd1ca8ull},  // 528 mutants
      {"StatsRequest", 0x5dbe7ead05a6b550ull},  // 524 mutants
      {"StatsReply", 0x1f70f6a79333bab7ull},  // 659 mutants
      {"DlMacConfig", 0xee117298e18c355cull},  // 561 mutants
      {"UlMacConfig", 0x11405eeca7ed0ee9ull},  // 547 mutants
      {"HandoverCommand", 0x830d3d2b520a61f1ull},  // 518 mutants
      {"AbsConfig", 0xbc5c35f37e6a1beaull},  // 522 mutants
      {"CarrierRestriction", 0x4dcfd3b5f93f59caull},  // 516 mutants
      {"DrxConfig", 0x5054d418ec8734efull},  // 518 mutants
      {"ScellCommand", 0x0823d7637c3e2a92ull},  // 516 mutants
      {"EventNotification", 0x43593d1e7c78c876ull},  // 591 mutants
      {"EventSubscription", 0xf557963b6f60fdaaull},  // 518 mutants
      {"ControlDelegation", 0x3c41dca3974461f6ull},  // 552 mutants
      {"PolicyReconfiguration", 0xdb21ad8c81947afaull},  // 561 mutants
      {"MasterCheckpoint", 0x937d280136c3fee9ull},  // 852 mutants
  };
  const auto surfaces = all_surfaces();
  for (std::size_t i = 0; i < surfaces.size(); ++i) {
    std::size_t mutants = 0;
    const std::uint64_t digest = surface_digest(surfaces, i, &mutants);
    const auto it = pinned.find(surfaces[i].name);
    EXPECT_EQ(digest, it == pinned.end() ? 0 : it->second)
        << "{\"" << surfaces[i].name << "\", 0x" << std::hex << std::setw(16)
        << std::setfill('0') << digest << "ull},  // "
        << std::dec << mutants << " mutants";
  }
  EXPECT_EQ(pinned.size(), surfaces.size());
}

// The warm-struct receive paths must be indistinguishable from a fresh
// decode on every mutant of every surface: same verdict and, when accepted,
// the same value, whether the struct was just dirtied or carries whatever
// the previous (possibly failed) decode left in it. A struct is dirtied by
// decoding a larger sample into it first: the valid sample twice over, so
// every field holds a non-default value and every repeated field holds
// more entries than the sample.
TEST(ProtoRobustness, DecodeIntoMatchesDecodeOnMutants) {
  const auto surfaces = all_surfaces();
  for (std::size_t i = 0; i < surfaces.size(); ++i) {
    const auto& surface = surfaces[i];
    Bytes dirt = surface.valid;
    dirt.insert(dirt.end(), surface.valid.begin(), surface.valid.end());
    ASSERT_TRUE(surface.decode(dirt)) << surface.name;
    const auto warm = surface.warm(dirt);
    for (const auto& mutant : mutants_of(surfaces, i)) {
      const auto reference = surface.reencode(mutant);
      const auto dirtied = surface.warm(dirt)(mutant);
      ASSERT_EQ(dirtied.has_value(), reference.has_value())
          << surface.name << " mutant of " << mutant.size() << " B";
      if (reference) {
        EXPECT_EQ(*dirtied, *reference) << surface.name;
      }
      const auto reused = warm(mutant);
      ASSERT_EQ(reused.has_value(), reference.has_value())
          << surface.name << " mutant of " << mutant.size() << " B";
      if (reference) {
        EXPECT_EQ(*reused, *reference) << surface.name;
      }
    }
  }
}

}  // namespace
