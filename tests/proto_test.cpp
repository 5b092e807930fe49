#include <gtest/gtest.h>

#include <algorithm>

#include "net/framing.h"
#include "proto/accounting.h"
#include "proto/checkpoint.h"
#include "proto/messages.h"
#include "proto/wire.h"

namespace flexran::proto {
namespace {

// ------------------------------------------------------------------- wire --

TEST(Wire, VarintRoundTrip) {
  WireEncoder enc;
  enc.varint(0);
  enc.varint(127);
  enc.varint(128);
  enc.varint(300);
  enc.varint(0xffffffffffffffffull);
  WireDecoder dec(enc.bytes());
  EXPECT_EQ(dec.read_varint().value(), 0u);
  EXPECT_EQ(dec.read_varint().value(), 127u);
  EXPECT_EQ(dec.read_varint().value(), 128u);
  EXPECT_EQ(dec.read_varint().value(), 300u);
  EXPECT_EQ(dec.read_varint().value(), 0xffffffffffffffffull);
  EXPECT_TRUE(dec.done());
}

TEST(Wire, VarintCompactness) {
  // Protobuf wire-size property the Fig. 7 results rely on: small values
  // cost one byte.
  WireEncoder enc;
  enc.varint(1);
  EXPECT_EQ(enc.size(), 1u);
  WireEncoder enc2;
  enc2.varint(127);
  EXPECT_EQ(enc2.size(), 1u);
  WireEncoder enc3;
  enc3.varint(128);
  EXPECT_EQ(enc3.size(), 2u);
}

TEST(Wire, ZigzagSmallMagnitudes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  for (std::int64_t v : {-1000000ll, -5ll, 0ll, 7ll, 123456789ll}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Wire, FieldsWithMixedTypesRoundTrip) {
  WireEncoder enc;
  enc.field_varint(1, 42);
  enc.field_double(2, 3.5);
  enc.field_string(3, "hello");
  enc.field_fixed32(4, 0xdeadbeef);

  WireDecoder dec(enc.bytes());
  auto h1 = dec.next_field().value();
  EXPECT_EQ(h1.field, 1);
  EXPECT_EQ(h1.type, WireType::varint);
  EXPECT_EQ(dec.read_varint().value(), 42u);

  auto h2 = dec.next_field().value();
  EXPECT_EQ(h2.type, WireType::fixed64);
  EXPECT_DOUBLE_EQ(dec.read_double().value(), 3.5);

  auto h3 = dec.next_field().value();
  EXPECT_EQ(h3.type, WireType::length_delimited);
  EXPECT_EQ(dec.read_string().value(), "hello");

  auto h4 = dec.next_field().value();
  EXPECT_EQ(h4.type, WireType::fixed32);
  EXPECT_EQ(dec.read_fixed32().value(), 0xdeadbeefu);
  EXPECT_TRUE(dec.done());
}

TEST(Wire, SkipUnknownFields) {
  WireEncoder enc;
  enc.field_varint(9, 1);
  enc.field_string(10, "unknown");
  enc.field_double(11, 2.0);
  enc.field_varint(1, 7);

  WireDecoder dec(enc.bytes());
  std::uint64_t found = 0;
  while (!dec.done()) {
    auto header = dec.next_field().value();
    if (header.field == 1) {
      found = dec.read_varint().value();
    } else {
      ASSERT_TRUE(dec.skip(header.type).ok());
    }
  }
  EXPECT_EQ(found, 7u);
}

TEST(Wire, TruncatedInputFails) {
  WireEncoder enc;
  enc.field_string(1, "payload");
  auto bytes = enc.take();
  bytes.resize(bytes.size() - 3);  // cut into the string
  WireDecoder dec(bytes);
  auto header = dec.next_field();
  ASSERT_TRUE(header.ok());
  EXPECT_FALSE(dec.read_string().ok());
}

TEST(Wire, MalformedVarintFails) {
  std::vector<std::uint8_t> bad(11, 0x80);  // never terminates
  WireDecoder dec(bad);
  EXPECT_FALSE(dec.read_varint().ok());
}

// --------------------------------------------------------------- envelope --

TEST(Envelope, RoundTrip) {
  Hello hello;
  hello.enb_id = 17;
  hello.name = "enb-17";
  hello.n_cells = 1;
  hello.capabilities = {"mac", "rrc"};

  const auto wire = pack(hello, /*xid=*/99);
  auto envelope = Envelope::decode(wire);
  ASSERT_TRUE(envelope.ok()) << envelope.error().message;
  EXPECT_EQ(envelope->version, kProtocolVersion);
  EXPECT_EQ(envelope->type, MessageType::hello);
  EXPECT_EQ(envelope->xid, 99u);

  auto decoded = unpack<Hello>(*envelope);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->enb_id, 17u);
  EXPECT_EQ(decoded->name, "enb-17");
  ASSERT_EQ(decoded->capabilities.size(), 2u);
  EXPECT_EQ(decoded->capabilities[1], "rrc");
}

TEST(Envelope, QueueStatusAndThrottleHintRoundTrip) {
  EchoRequest req{.subframe = 7, .timestamp_us = 42};
  WireEncoder body;
  req.encode_body(body);
  Envelope envelope;
  envelope.type = MessageType::echo_request;
  envelope.body = body.take();
  envelope.queue_status = 2;
  envelope.throttle_hint = 8;
  auto decoded = Envelope::decode(envelope.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->queue_status, 2u);
  EXPECT_EQ(decoded->throttle_hint, 8u);

  // Defaults stay off the wire: a normal-state envelope is byte-identical
  // to the pre-overload encoding.
  const auto plain = pack(req);
  auto plain_decoded = Envelope::decode(plain);
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_EQ(plain_decoded->queue_status, 0u);
  EXPECT_EQ(plain_decoded->throttle_hint, 0u);
  Envelope unset;
  unset.type = MessageType::echo_request;
  WireEncoder body2;
  req.encode_body(body2);
  unset.body = body2.take();
  EXPECT_EQ(unset.encode(), plain);
}

TEST(Envelope, TypeMismatchRejected) {
  const auto wire = pack(EchoRequest{.subframe = 1, .timestamp_us = 2});
  auto envelope = Envelope::decode(wire);
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(unpack<Hello>(*envelope).ok());
}

TEST(Envelope, GarbageRejected) {
  std::vector<std::uint8_t> garbage = {0xff, 0xfe, 0x01, 0x99};
  EXPECT_FALSE(Envelope::decode(garbage).ok());
}

// --------------------------------------------------------------- messages --

TEST(Messages, EchoCarriesSyncInfo) {
  EchoRequest req{.subframe = 12345, .timestamp_us = 777};
  auto envelope = Envelope::decode(pack(req)).value();
  auto decoded = unpack<EchoRequest>(envelope).value();
  EXPECT_EQ(decoded.subframe, 12345);
  EXPECT_EQ(decoded.timestamp_us, 777);

  EchoReply rep{.subframe = 12346, .echoed_timestamp_us = 777};
  auto rep2 = unpack<EchoReply>(Envelope::decode(pack(rep)).value()).value();
  EXPECT_EQ(rep2.subframe, 12346);
}

TEST(Messages, EnbConfigReplyRoundTrip) {
  lte::CellConfig cell;
  cell.cell_id = 3;
  cell.bandwidth_mhz = 10.0;
  cell.tx_mode = lte::TransmissionMode::tm1_single_antenna;
  cell.band = 5;
  cell.pci = 101;

  EnbConfigReply reply;
  reply.enb_id = 7;
  reply.cells.push_back(CellConfigMsg::from(cell));

  auto decoded = unpack<EnbConfigReply>(Envelope::decode(pack(reply)).value()).value();
  ASSERT_EQ(decoded.cells.size(), 1u);
  const auto restored = decoded.cells[0].to_cell_config();
  EXPECT_EQ(restored.cell_id, 3u);
  EXPECT_DOUBLE_EQ(restored.bandwidth_mhz, 10.0);
  EXPECT_EQ(restored.pci, 101);
  EXPECT_EQ(restored.dl_prbs(), 50);
}

TEST(Messages, UeAndLcConfigRoundTrip) {
  UeConfigReply ues;
  ues.ues.push_back(UeConfigMsg{.rnti = 0x4601, .primary_cell = 1, .tx_mode = 1,
                                .ue_category = 4, .carrier_aggregation = false});
  auto ue2 = unpack<UeConfigReply>(Envelope::decode(pack(ues)).value()).value();
  ASSERT_EQ(ue2.ues.size(), 1u);
  EXPECT_EQ(ue2.ues[0].rnti, 0x4601);
  EXPECT_EQ(ue2.ues[0].to_ue_config().ue_category, 4);

  LcConfigReply lcs;
  lcs.channels.push_back({.rnti = 0x4601, .lcid = 3, .lc_group = 2});
  lcs.channels.push_back({.rnti = 0x4602, .lcid = 1, .lc_group = 0});
  auto lc2 = unpack<LcConfigReply>(Envelope::decode(pack(lcs)).value()).value();
  ASSERT_EQ(lc2.channels.size(), 2u);
  EXPECT_EQ(lc2.channels[1].rnti, 0x4602);
  EXPECT_EQ(lc2.channels[0].lc_group, 2);
}

TEST(Messages, StatsRequestRoundTrip) {
  StatsRequest req;
  req.request_id = 5;
  req.mode = ReportMode::periodic;
  req.periodicity_ttis = 2;
  req.flags = stats_flags::kBsr | stats_flags::kCqi;
  req.ues = {10, 11, 12};

  auto decoded = unpack<StatsRequest>(Envelope::decode(pack(req)).value()).value();
  EXPECT_EQ(decoded.mode, ReportMode::periodic);
  EXPECT_EQ(decoded.periodicity_ttis, 2u);
  EXPECT_EQ(decoded.flags, (stats_flags::kBsr | stats_flags::kCqi));
  ASSERT_EQ(decoded.ues.size(), 3u);
  EXPECT_EQ(decoded.ues[2], 12);
}

TEST(Messages, StatsReplyRoundTrip) {
  StatsReply reply;
  reply.request_id = 5;
  reply.subframe = 1000;
  UeStatsReport ue;
  ue.rnti = 70;
  ue.bsr_bytes = {100, 0, 2000, 0};
  ue.phr_db = -3;
  ue.wb_cqi = 12;
  ue.rlc_queue_bytes = 2100;
  ue.pending_harq = 2;
  ue.dl_bytes_delivered = 1234567;
  reply.ue_reports.push_back(ue);
  CellStatsReport cell;
  cell.cell_id = 1;
  cell.noise_interference_dbm = -95.5;
  cell.dl_prbs_in_use = 48;
  cell.active_ues = 16;
  reply.cell_reports.push_back(cell);

  auto decoded = unpack<StatsReply>(Envelope::decode(pack(reply)).value()).value();
  ASSERT_EQ(decoded.ue_reports.size(), 1u);
  const auto& u = decoded.ue_reports[0];
  EXPECT_EQ(u.rnti, 70);
  EXPECT_EQ(u.bsr_bytes[2], 2000u);
  EXPECT_EQ(u.total_bsr(), 2100u);
  EXPECT_EQ(u.phr_db, -3);
  EXPECT_EQ(u.wb_cqi, 12);
  EXPECT_EQ(u.dl_bytes_delivered, 1234567u);
  ASSERT_EQ(decoded.cell_reports.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.cell_reports[0].noise_interference_dbm, -95.5);
  EXPECT_EQ(decoded.cell_reports[0].dl_prbs_in_use, 48u);
}

TEST(Messages, DlMacConfigRoundTrip) {
  lte::SchedulingDecision decision;
  decision.cell_id = 2;
  decision.subframe = 4321;
  lte::DlDci dci;
  dci.rnti = 0x4601;
  dci.rbs.set_range(0, 25);
  dci.mcs = 20;
  dci.harq_pid = 5;
  dci.new_data = false;
  decision.dl.push_back(dci);
  lte::DlDci dci2;
  dci2.rnti = 0x4602;
  dci2.rbs.set_range(25, 25);
  dci2.mcs = 10;
  decision.dl.push_back(dci2);

  const auto msg = to_dl_mac_config(decision);
  auto decoded = unpack<DlMacConfig>(Envelope::decode(pack(msg)).value()).value();
  EXPECT_EQ(decoded.cell_id, 2u);
  EXPECT_EQ(decoded.target_subframe, 4321);
  ASSERT_EQ(decoded.dcis.size(), 2u);
  EXPECT_EQ(decoded.dcis[0].rnti, 0x4601);
  EXPECT_EQ(decoded.dcis[0].rbs.count(), 25);
  EXPECT_EQ(decoded.dcis[0].harq_pid, 5);
  EXPECT_FALSE(decoded.dcis[0].new_data);
  EXPECT_TRUE(decoded.dcis[1].rbs.test(30));
  EXPECT_FALSE(decoded.dcis[1].rbs.overlaps(decoded.dcis[0].rbs));
}

TEST(Messages, UlMacConfigRoundTrip) {
  UlMacConfig msg;
  msg.cell_id = 1;
  msg.target_subframe = 99;
  lte::UlDci dci;
  dci.rnti = 40;
  dci.rbs.set_range(10, 6);
  dci.mcs = 12;
  msg.dcis.push_back(dci);
  auto decoded = unpack<UlMacConfig>(Envelope::decode(pack(msg)).value()).value();
  ASSERT_EQ(decoded.dcis.size(), 1u);
  EXPECT_EQ(decoded.dcis[0].rbs.count(), 6);
  EXPECT_EQ(decoded.dcis[0].mcs, 12);
}

TEST(Messages, HandoverAndAbsRoundTrip) {
  HandoverCommand ho{.rnti = 55, .source_cell = 1, .target_cell = 2};
  auto ho2 = unpack<HandoverCommand>(Envelope::decode(pack(ho)).value()).value();
  EXPECT_EQ(ho2.target_cell, 2u);

  AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(4);
  abs.mute_during_abs = true;
  auto abs2 = unpack<AbsConfig>(Envelope::decode(pack(abs)).value()).value();
  EXPECT_EQ(abs2.pattern, abs.pattern);
  EXPECT_TRUE(abs2.pattern.is_abs(2));
  EXPECT_TRUE(abs2.mute_during_abs);
}

TEST(Messages, EventNotificationRoundTrip) {
  EventNotification ev;
  ev.event = EventType::ue_attach;
  ev.subframe = 500;
  ev.rnti = 33;
  ev.cell_id = 2;
  auto ev2 = unpack<EventNotification>(Envelope::decode(pack(ev)).value()).value();
  EXPECT_EQ(ev2.event, EventType::ue_attach);
  EXPECT_EQ(ev2.rnti, 33);
  EXPECT_EQ(ev2.cell_id, 2u);
}

TEST(Messages, DelegationRoundTrip) {
  ControlDelegation del;
  del.module = "mac";
  del.vsf = "dl_ue_scheduler";
  del.implementation = "local_pf";
  del.version = 3;
  del.blob = {1, 2, 3, 4};
  auto del2 = unpack<ControlDelegation>(Envelope::decode(pack(del)).value()).value();
  EXPECT_EQ(del2.module, "mac");
  EXPECT_EQ(del2.vsf, "dl_ue_scheduler");
  EXPECT_EQ(del2.implementation, "local_pf");
  EXPECT_EQ(del2.version, 3u);
  EXPECT_EQ(del2.blob, (std::vector<std::uint8_t>{1, 2, 3, 4}));

  PolicyReconfiguration pol;
  pol.yaml = "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n";
  auto pol2 = unpack<PolicyReconfiguration>(Envelope::decode(pack(pol)).value()).value();
  EXPECT_EQ(pol2.yaml, pol.yaml);
}

// ------------------------------------------------------------- categories --

TEST(Categories, SubframeTickIsSync) {
  EventNotification tick;
  tick.event = EventType::subframe_tick;
  tick.subframe = 1;
  auto envelope = Envelope::decode(pack(tick)).value();
  EXPECT_EQ(categorize(envelope.type, envelope.body), MessageCategory::sync);

  EventNotification attach;
  attach.event = EventType::ue_attach;
  attach.rnti = 1;
  auto envelope2 = Envelope::decode(pack(attach)).value();
  EXPECT_EQ(categorize(envelope2.type, envelope2.body), MessageCategory::agent_management);
}

TEST(Categories, ByMessageType) {
  EXPECT_EQ(categorize(MessageType::stats_reply, {}), MessageCategory::stats);
  EXPECT_EQ(categorize(MessageType::dl_mac_config, {}), MessageCategory::commands);
  EXPECT_EQ(categorize(MessageType::control_delegation, {}), MessageCategory::delegation);
  EXPECT_EQ(categorize(MessageType::hello, {}), MessageCategory::agent_management);
  EXPECT_EQ(categorize(MessageType::echo_reply, {}), MessageCategory::agent_management);
}

TEST(TrafficClasses, ByMessageType) {
  using net::TrafficClass;
  EXPECT_EQ(traffic_class(MessageType::hello, {}), TrafficClass::session);
  EXPECT_EQ(traffic_class(MessageType::echo_reply, {}), TrafficClass::session);
  EXPECT_EQ(traffic_class(MessageType::dl_mac_config, {}), TrafficClass::command);
  EXPECT_EQ(traffic_class(MessageType::policy_reconfiguration, {}), TrafficClass::command);
  EXPECT_EQ(traffic_class(MessageType::stats_request, {}), TrafficClass::config);
  EXPECT_EQ(traffic_class(MessageType::enb_config_reply, {}), TrafficClass::config);
  EXPECT_EQ(traffic_class(MessageType::stats_reply, {}), TrafficClass::stats);

  EventNotification tick;
  tick.event = EventType::subframe_tick;
  auto tick_env = Envelope::decode(pack(tick)).value();
  EXPECT_EQ(traffic_class(tick_env.type, tick_env.body), TrafficClass::sync);

  EventNotification attach;
  attach.event = EventType::ue_attach;
  attach.rnti = 9;
  auto attach_env = Envelope::decode(pack(attach)).value();
  EXPECT_EQ(traffic_class(attach_env.type, attach_env.body), TrafficClass::event);

  // Only event triggers, sync ticks and stats are sheddable.
  EXPECT_FALSE(net::sheddable(TrafficClass::session));
  EXPECT_FALSE(net::sheddable(TrafficClass::command));
  EXPECT_FALSE(net::sheddable(TrafficClass::config));
  EXPECT_TRUE(net::sheddable(TrafficClass::event));
  EXPECT_TRUE(net::sheddable(TrafficClass::sync));
  EXPECT_TRUE(net::sheddable(TrafficClass::stats));
}

// ----------------------------------------------------- aggregation savings --

TEST(WireSize, AggregatedStatsReportBeatsPerUeMessages) {
  // Fig. 7a sublinearity: one StatsReply carrying N UE reports is much
  // smaller than N separate single-UE replies (envelope and header
  // amortization).
  auto make_report = [](lte::Rnti rnti) {
    UeStatsReport ue;
    ue.rnti = rnti;
    ue.bsr_bytes = {1000, 0, 0, 0};
    ue.wb_cqi = 10;
    ue.rlc_queue_bytes = 1000;
    return ue;
  };

  StatsReply aggregated;
  aggregated.subframe = 1000;
  std::size_t separate_bytes = 0;
  for (lte::Rnti rnti = 1; rnti <= 50; ++rnti) {
    aggregated.ue_reports.push_back(make_report(rnti));
    StatsReply single;
    single.subframe = 1000;
    single.ue_reports.push_back(make_report(rnti));
    separate_bytes += pack(single).size();
  }
  const std::size_t aggregated_bytes = pack(aggregated).size();
  EXPECT_LT(aggregated_bytes, separate_bytes);
  // Per-UE marginal cost must be well under the standalone message cost.
  const double marginal = static_cast<double>(aggregated_bytes) / 50.0;
  const double standalone = static_cast<double>(separate_bytes) / 50.0;
  EXPECT_LT(marginal, 0.8 * standalone);
}

TEST(WireSize, EmptyDciListIsTiny) {
  DlMacConfig msg;
  msg.cell_id = 1;
  msg.target_subframe = 1;
  EXPECT_LT(pack(msg).size(), 16u);
}

// ----------------------------------------------------- timestamp echo --

TEST(Envelope, TimestampEchoRoundTrip) {
  EchoRequest req{.subframe = 3, .timestamp_us = 5};
  WireEncoder body;
  req.encode_body(body);
  Envelope envelope;
  envelope.type = MessageType::echo_request;
  envelope.body = body.take();
  envelope.ts_us = 123456789;
  envelope.ts_echo_us = 42;
  auto decoded = Envelope::decode(envelope.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->ts_us, 123456789u);
  EXPECT_EQ(decoded->ts_echo_us, 42u);
}

TEST(Envelope, TimestampFieldsOmittedWhenZero) {
  // Observability off must be wire-identical to the seed encoding: the
  // zero-valued timestamp fields stay off the wire entirely.
  EchoRequest req{.subframe = 3, .timestamp_us = 5};
  const auto plain = pack(req);
  Envelope envelope;
  envelope.type = MessageType::echo_request;
  WireEncoder body;
  req.encode_body(body);
  envelope.body = body.take();
  envelope.ts_us = 0;
  envelope.ts_echo_us = 0;
  EXPECT_EQ(envelope.encode(), plain);
  auto decoded = Envelope::decode(plain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ts_us, 0u);
  EXPECT_EQ(decoded->ts_echo_us, 0u);
}

// ------------------------------------------------------- accounting --

TEST(Accounting, BucketsPerCategory) {
  SignalingAccountant accountant;
  accountant.record(MessageCategory::stats, 100);
  accountant.record(MessageCategory::stats, 50);
  accountant.record(MessageCategory::sync, 7);
  accountant.record(MessageCategory::commands, 20);
  accountant.record(MessageCategory::delegation, 300);
  accountant.record(MessageCategory::agent_management, 1);

  EXPECT_EQ(accountant.bytes(MessageCategory::stats), 150u);
  EXPECT_EQ(accountant.messages(MessageCategory::stats), 2u);
  EXPECT_EQ(accountant.bytes(MessageCategory::sync), 7u);
  EXPECT_EQ(accountant.messages(MessageCategory::sync), 1u);
  EXPECT_EQ(accountant.bytes(MessageCategory::commands), 20u);
  EXPECT_EQ(accountant.bytes(MessageCategory::delegation), 300u);
  EXPECT_EQ(accountant.bytes(MessageCategory::agent_management), 1u);
  EXPECT_EQ(accountant.total_bytes(), 478u);
  EXPECT_EQ(accountant.total_messages(), 6u);
}

TEST(Accounting, ResetClearsAllBuckets) {
  SignalingAccountant accountant;
  accountant.record(MessageCategory::stats, 100);
  accountant.record(MessageCategory::sync, 10);
  accountant.reset();
  EXPECT_EQ(accountant.total_bytes(), 0u);
  EXPECT_EQ(accountant.total_messages(), 0u);
  for (auto category :
       {MessageCategory::agent_management, MessageCategory::sync, MessageCategory::stats,
        MessageCategory::commands, MessageCategory::delegation}) {
    EXPECT_EQ(accountant.bytes(category), 0u);
    EXPECT_EQ(accountant.messages(category), 0u);
  }
}

TEST(Accounting, FrameHeaderConvention) {
  // Both master and agent record `wire.size() + net::kFrameHeaderBytes` per
  // message, so accounted bytes equal the framed bytes that actually cross
  // the control link (the Fig. 7 reconciliation invariant).
  const auto wire = pack(EchoRequest{.subframe = 1, .timestamp_us = 2});
  SignalingAccountant accountant;
  accountant.record(categorize(MessageType::echo_request, wire),
                    wire.size() + net::kFrameHeaderBytes);
  EXPECT_EQ(accountant.total_bytes(), wire.size() + net::kFrameHeaderBytes);
}

TEST(Accounting, CategorizeIsBodyDependentForEvents) {
  // The retry-path bug this PR fixes: re-categorizing a request with an
  // EMPTY body instead of its real body gives the wrong bucket for
  // body-dependent types. A ue_attach notification is agent management,
  // but `categorize(type, {})` sees a default-constructed body (whose
  // event decodes as subframe_tick) and mis-buckets it as sync. Retries
  // must reuse the category computed from the real body at enqueue time.
  EventNotification attach;
  attach.event = EventType::ue_attach;
  attach.rnti = 4;
  auto envelope = Envelope::decode(pack(attach)).value();
  EXPECT_EQ(categorize(envelope.type, envelope.body), MessageCategory::agent_management);
  EXPECT_EQ(categorize(envelope.type, {}), MessageCategory::sync);
  EXPECT_NE(categorize(envelope.type, envelope.body), categorize(envelope.type, {}));
}

// ------------------------------------------- wire fast path (zero-alloc) --
// docs/wire_fastpath.md: the arena/backpatch encoder and the reuse APIs
// must be byte-identical to the legacy fresh-encoder paths on every
// top-level message type.

// pack() via a reused scratch encoder (cleared between messages, after
// encoding unrelated garbage) must produce exactly pack()'s bytes.
template <typename M>
void expect_reused_encoder_identical(const M& message) {
  const auto fresh = pack(message, /*xid=*/9);
  WireEncoder scratch;
  // Dirty the scratch with an unrelated message first, as a long-lived
  // per-link encoder would be.
  Envelope dirty_header;
  dirty_header.xid = 1;
  encode_envelope(scratch, dirty_header, EchoRequest{.subframe = 7, .timestamp_us = 8});
  scratch.clear();
  Envelope header;
  header.xid = 9;
  encode_envelope(scratch, header, message);
  const auto reused = scratch.bytes();
  ASSERT_EQ(reused.size(), fresh.size()) << to_string(M::kType);
  EXPECT_TRUE(std::equal(reused.begin(), reused.end(), fresh.begin())) << to_string(M::kType);
}

TEST(WireFastPath, ReusedEncoderMatchesFreshAcrossAllMessageTypes) {
  expect_reused_encoder_identical(Hello{.enb_id = 3, .name = "enb", .capabilities = {"mac"}});
  expect_reused_encoder_identical(EchoRequest{.subframe = 42, .timestamp_us = 777});
  expect_reused_encoder_identical(EchoReply{.subframe = 42, .echoed_timestamp_us = 777});
  expect_reused_encoder_identical(EnbConfigRequest{});
  EnbConfigReply enb_reply;
  enb_reply.enb_id = 2;
  enb_reply.cells.push_back(CellConfigMsg::from(lte::CellConfig{}));
  expect_reused_encoder_identical(enb_reply);
  expect_reused_encoder_identical(UeConfigRequest{});
  UeConfigReply ue_reply;
  ue_reply.ues.push_back(UeConfigMsg{.rnti = 70, .primary_cell = 1});
  expect_reused_encoder_identical(ue_reply);
  expect_reused_encoder_identical(LcConfigRequest{});
  LcConfigReply lc_reply;
  lc_reply.channels.push_back(LcConfigMsg{.rnti = 70});
  expect_reused_encoder_identical(lc_reply);
  StatsRequest stats_request;
  stats_request.request_id = 4;
  stats_request.mode = ReportMode::periodic;
  stats_request.ues = {70, 71};
  expect_reused_encoder_identical(stats_request);
  StatsReply stats_reply;
  stats_reply.request_id = 4;
  stats_reply.subframe = 999;
  UeStatsReport report;
  report.rnti = 70;
  report.bsr_bytes = {1, 2, 3, 4};
  report.rsrp.push_back({1, -91.25});
  stats_reply.ue_reports.push_back(report);
  stats_reply.cell_reports.push_back(CellStatsReport{.cell_id = 1, .active_ues = 1});
  expect_reused_encoder_identical(stats_reply);
  DlMacConfig dl;
  dl.cell_id = 1;
  dl.target_subframe = 88;
  lte::DlDci dci;
  dci.rnti = 70;
  dci.rbs.set_range(0, 10);
  dci.mcs = 15;
  dl.dcis.push_back(dci);
  expect_reused_encoder_identical(dl);
  UlMacConfig ul;
  ul.cell_id = 1;
  lte::UlDci ul_dci;
  ul_dci.rnti = 70;
  ul_dci.rbs.set_range(4, 4);
  ul.dcis.push_back(ul_dci);
  expect_reused_encoder_identical(ul);
  expect_reused_encoder_identical(
      HandoverCommand{.rnti = 70, .source_cell = 1, .target_cell = 2});
  AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(4);
  expect_reused_encoder_identical(abs);
  expect_reused_encoder_identical(CarrierRestriction{.cell_id = 1, .max_dl_prbs = 50});
  expect_reused_encoder_identical(DrxConfig{.rnti = 70, .cycle_ttis = 64});
  expect_reused_encoder_identical(ScellCommand{.rnti = 70, .activate = false});
  EventNotification event;
  event.event = EventType::vsf_failure;
  event.module = "mac";
  event.vsf = "dl_ue_scheduler";
  event.implementation = "remote";
  event.failure_kind = VsfFailureKind::overrun;
  event.failure_count = 2;
  event.detail = "deadline";
  expect_reused_encoder_identical(event);
  EventSubscription subscription;
  subscription.events = {EventType::ue_attach, EventType::ue_detach};
  expect_reused_encoder_identical(subscription);
  ControlDelegation delegation;
  delegation.module = "mac";
  delegation.vsf = "dl_ue_scheduler";
  delegation.implementation = "local_pf";
  delegation.blob = {1, 2, 3};
  expect_reused_encoder_identical(delegation);
  expect_reused_encoder_identical(PolicyReconfiguration{.yaml = "mac: {}"});
}

TEST(WireFastPath, BackpatchMatchesFieldMessageAcrossLengthBoundary) {
  // Nested payloads around the 1-byte/2-byte length-prefix boundary (127 /
  // 128) and well past it: begin/end_message must emit exactly what the
  // legacy two-encoder path (sub-message copied in via field_bytes) emits,
  // including the widened
  // minimal varint prefix.
  for (std::size_t payload_len : {0u, 1u, 126u, 127u, 128u, 129u, 300u, 16383u, 16384u}) {
    const std::vector<std::uint8_t> payload(payload_len, 0x5a);
    WireEncoder legacy;
    WireEncoder sub;
    for (auto b : payload) sub.field_varint(1, b);
    legacy.field_bytes(7, sub.bytes());

    WireEncoder arena;
    const auto mark = arena.begin_message(7);
    for (auto b : payload) arena.field_varint(1, b);
    arena.end_message(mark);

    ASSERT_EQ(arena.size(), legacy.size()) << "payload_len=" << payload_len;
    const auto a = arena.bytes();
    const auto l = legacy.bytes();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), l.begin())) << "payload_len=" << payload_len;
  }
}

TEST(WireFastPath, DeeplyNestedBackpatchIsByteIdenticalToLegacy) {
  // Two levels of nesting with a large inner payload, like a StatsReply
  // carrying RSRP sub-messages: inner end_message runs before the outer.
  WireEncoder legacy;
  {
    WireEncoder inner;
    for (int i = 0; i < 100; ++i) inner.field_varint(1, 200 + i);
    WireEncoder outer;
    outer.field_varint(1, 70);
    outer.field_bytes(10, inner.bytes());
    legacy.field_bytes(3, outer.bytes());
  }
  WireEncoder arena;
  {
    const auto outer = arena.begin_message(3);
    arena.field_varint(1, 70);
    const auto inner = arena.begin_message(10);
    for (int i = 0; i < 100; ++i) arena.field_varint(1, 200 + i);
    arena.end_message(inner);
    arena.end_message(outer);
  }
  ASSERT_EQ(arena.size(), legacy.size());
  const auto a = arena.bytes();
  const auto l = legacy.bytes();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), l.begin()));
}

TEST(WireFastPath, CheckpointNestedEncodeMatchesFieldBytesReference) {
  // MasterCheckpoint encodes its agent, config and report sub-messages in
  // place (begin/end_message). Its bytes must equal the two-encoder
  // reference that builds each sub-message separately and copies it in via
  // field_bytes, including sub-messages past the 1-byte length prefix.
  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 4;
  checkpoint.saved_at_us = 3'000'000;
  checkpoint.shard = 2;
  checkpoint.agent_ids = {5, 9};
  for (const std::uint32_t id : {5u, 9u}) {
    CheckpointAgent agent;
    agent.id = id;
    agent.name = "macro-" + std::to_string(id);
    agent.capabilities = {"mac", "rrc", "delegation"};
    agent.epoch = 3;
    agent.config.enb_id = id;
    for (int c = 0; c < 6; ++c) {
      CellConfigMsg cell;
      cell.cell_id = static_cast<lte::CellId>(c + 1);
      cell.bandwidth_mhz = 20.0;
      cell.pci = static_cast<std::uint16_t>(300 + c);
      agent.config.cells.push_back(cell);
    }
    StatsRequest report;
    report.request_id = 11;
    report.mode = ReportMode::periodic;
    report.periodicity_ttis = 1;
    report.flags = stats_flags::kAll;
    for (lte::Rnti rnti = 70; rnti < 140; ++rnti) report.ues.push_back(rnti);
    agent.reports.push_back(report);
    agent.policy_history.push_back(std::string(150, 'p'));
    checkpoint.agents.push_back(agent);
  }

  WireEncoder reference;
  reference.field_varint(1, checkpoint.version);
  reference.field_varint(2, checkpoint.incarnation);
  reference.field_varint(3, checkpoint.saved_at_us);
  for (const auto& agent : checkpoint.agents) {
    WireEncoder sub;
    sub.field_varint(1, agent.id);
    sub.field_string(2, agent.name);
    for (const auto& cap : agent.capabilities) sub.field_string(3, cap);
    sub.field_varint(4, agent.epoch);
    WireEncoder config;
    agent.config.encode_body(config);
    ASSERT_GE(config.size(), 128u);
    sub.field_bytes(5, config.bytes());
    for (const auto& report : agent.reports) {
      WireEncoder body;
      report.encode_body(body);
      ASSERT_GE(body.size(), 128u);
      sub.field_bytes(6, body.bytes());
    }
    for (const auto& policy : agent.policy_history) sub.field_string(7, policy);
    ASSERT_GE(sub.size(), 128u);
    reference.field_bytes(4, sub.bytes());
  }
  reference.field_varint(5, static_cast<std::uint64_t>(checkpoint.shard) + 1);
  for (const auto id : checkpoint.agent_ids) reference.field_varint(6, id);

  const auto encoded = checkpoint.encode();
  const auto expected = reference.bytes();
  ASSERT_EQ(encoded.size(), expected.size());
  EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(), expected.begin()));
  auto decoded = MasterCheckpoint::decode(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->agents.size(), 2u);
  EXPECT_EQ(decoded->agents[1].reports[0].ues.size(), 70u);
}

TEST(WireFastPath, DecodeIntoMatchesFreshDecode) {
  StatsReply reply;
  reply.request_id = 6;
  reply.subframe = 2000;
  for (lte::Rnti rnti = 70; rnti < 74; ++rnti) {
    UeStatsReport report;
    report.rnti = rnti;
    report.bsr_bytes = {10, 20, 30, 40};
    report.wb_cqi = 11;
    report.rsrp.push_back({1, -100.5});
    reply.ue_reports.push_back(report);
  }
  const auto wire = pack(reply, 3);

  Envelope reused_envelope;
  StatsReply reused_reply;
  // Pre-dirty the reused structs with a different shape (more reports than
  // the incoming message) so stale slots must be trimmed, not leak through.
  ASSERT_TRUE(Envelope::decode_into(pack(EchoRequest{}), reused_envelope).ok());
  for (int i = 0; i < 9; ++i) reused_reply.ue_reports.emplace_back();
  reused_reply.cell_reports.emplace_back();

  ASSERT_TRUE(Envelope::decode_into(wire, reused_envelope).ok());
  ASSERT_TRUE(StatsReply::decode_body_into(reused_envelope.body, reused_reply).ok());

  const auto fresh_envelope = Envelope::decode(wire).value();
  const auto fresh_reply = StatsReply::decode_body(fresh_envelope.body).value();
  EXPECT_EQ(reused_envelope.type, fresh_envelope.type);
  EXPECT_EQ(reused_envelope.xid, fresh_envelope.xid);
  EXPECT_EQ(reused_reply.request_id, fresh_reply.request_id);
  EXPECT_EQ(reused_reply.subframe, fresh_reply.subframe);
  ASSERT_EQ(reused_reply.ue_reports.size(), fresh_reply.ue_reports.size());
  ASSERT_EQ(reused_reply.cell_reports.size(), fresh_reply.cell_reports.size());
  for (std::size_t i = 0; i < fresh_reply.ue_reports.size(); ++i) {
    EXPECT_EQ(reused_reply.ue_reports[i].rnti, fresh_reply.ue_reports[i].rnti);
    EXPECT_EQ(reused_reply.ue_reports[i].bsr_bytes, fresh_reply.ue_reports[i].bsr_bytes);
    ASSERT_EQ(reused_reply.ue_reports[i].rsrp.size(), fresh_reply.ue_reports[i].rsrp.size());
    EXPECT_DOUBLE_EQ(reused_reply.ue_reports[i].rsrp[0].rsrp_dbm,
                     fresh_reply.ue_reports[i].rsrp[0].rsrp_dbm);
  }
}

TEST(WireFastPath, TrailingBsrEntriesAreCountedNotDropped) {
  // S3: a peer modeling more LC groups than kNumLcGroups sends extra
  // field-2 entries. The message must decode (forward compatibility), the
  // first kNumLcGroups entries must land, and the loss must be counted in
  // the decode-anomaly stat instead of vanishing silently.
  WireEncoder body;
  body.field_varint(1, 70);  // rnti
  for (std::uint32_t i = 0; i < lte::kNumLcGroups + 3; ++i) {
    body.field_varint(2, 100 + i);
  }
  body.field_svarint(3, 5);
  body.field_varint(4, 9);
  body.field_varint(5, 1234);
  WireEncoder reply_body;
  reply_body.field_varint(1, 8);   // request_id
  reply_body.field_svarint(2, 1);  // subframe
  reply_body.field_bytes(3, body.bytes());

  const auto before = decode_anomalies().bsr_overflow.load();
  auto decoded = StatsReply::decode_body(reply_body.bytes());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->ue_reports.size(), 1u);
  const auto& ue = decoded->ue_reports[0];
  EXPECT_EQ(ue.rnti, 70);
  for (std::uint32_t i = 0; i < lte::kNumLcGroups; ++i) {
    EXPECT_EQ(ue.bsr_bytes[i], 100 + i);
  }
  EXPECT_EQ(ue.wb_cqi, 9);
  EXPECT_EQ(decode_anomalies().bsr_overflow.load(), before + 3);
}

}  // namespace
}  // namespace flexran::proto
