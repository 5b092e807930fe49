#include "proto/messages.h"

#include <cmath>

#include "proto/decode_helpers.h"

namespace flexran::proto {

namespace {

using util::Error;
using util::Result;
using util::Status;

using namespace detail;

}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::hello: return "hello";
    case MessageType::echo_request: return "echo_request";
    case MessageType::echo_reply: return "echo_reply";
    case MessageType::enb_config_request: return "enb_config_request";
    case MessageType::enb_config_reply: return "enb_config_reply";
    case MessageType::ue_config_request: return "ue_config_request";
    case MessageType::ue_config_reply: return "ue_config_reply";
    case MessageType::lc_config_request: return "lc_config_request";
    case MessageType::lc_config_reply: return "lc_config_reply";
    case MessageType::stats_request: return "stats_request";
    case MessageType::stats_reply: return "stats_reply";
    case MessageType::dl_mac_config: return "dl_mac_config";
    case MessageType::ul_mac_config: return "ul_mac_config";
    case MessageType::handover_command: return "handover_command";
    case MessageType::abs_config: return "abs_config";
    case MessageType::event_notification: return "event_notification";
    case MessageType::control_delegation: return "control_delegation";
    case MessageType::policy_reconfiguration: return "policy_reconfiguration";
    case MessageType::event_subscription: return "event_subscription";
    case MessageType::carrier_restriction: return "carrier_restriction";
    case MessageType::drx_config: return "drx_config";
    case MessageType::scell_command: return "scell_command";
  }
  return "?";
}

const char* to_string(MessageCategory category) {
  switch (category) {
    case MessageCategory::agent_management: return "agent_management";
    case MessageCategory::sync: return "sync";
    case MessageCategory::stats: return "stats";
    case MessageCategory::commands: return "commands";
    case MessageCategory::delegation: return "delegation";
  }
  return "?";
}

const char* to_string(EventType event) {
  switch (event) {
    case EventType::subframe_tick: return "subframe_tick";
    case EventType::ue_attach: return "ue_attach";
    case EventType::ue_detach: return "ue_detach";
    case EventType::rach_attempt: return "rach_attempt";
    case EventType::scheduling_request: return "scheduling_request";
    case EventType::agent_disconnected: return "agent_disconnected";
    case EventType::agent_reconnected: return "agent_reconnected";
    case EventType::request_timeout: return "request_timeout";
    case EventType::vsf_failure: return "vsf_failure";
    case EventType::vsf_quarantined: return "vsf_quarantined";
    case EventType::policy_applied: return "policy_applied";
    case EventType::policy_rejected: return "policy_rejected";
    case EventType::overload_state_changed: return "overload_state_changed";
  }
  return "?";
}

const char* to_string(VsfFailureKind kind) {
  switch (kind) {
    case VsfFailureKind::none: return "none";
    case VsfFailureKind::exception: return "exception";
    case VsfFailureKind::overrun: return "overrun";
    case VsfFailureKind::invalid_decision: return "invalid_decision";
  }
  return "?";
}

// ----------------------------------------------------------------- Envelope

std::vector<std::uint8_t> Envelope::encode() const {
  WireEncoder enc;
  enc.field_varint(1, version);
  enc.field_varint(2, static_cast<std::uint64_t>(type));
  if (xid != 0) enc.field_varint(3, xid);
  enc.field_bytes(4, body);
  encode_tail(enc);
  return enc.take();
}

void Envelope::encode_tail(WireEncoder& enc) const {
  if (epoch != 0) enc.field_varint(5, epoch);
  if (queue_status != 0) enc.field_varint(6, queue_status);
  if (throttle_hint != 0) enc.field_varint(7, throttle_hint);
  if (ts_us != 0) enc.field_varint(8, ts_us);
  if (ts_echo_us != 0) enc.field_varint(9, ts_echo_us);
  if (master_epoch != 0) enc.field_varint(10, master_epoch);
  if (retry_after_ms != 0) enc.field_varint(11, retry_after_ms);
}

Result<Envelope> Envelope::decode(std::span<const std::uint8_t> data) {
  Envelope out;
  auto status = decode_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

Status Envelope::decode_into(std::span<const std::uint8_t> data, Envelope& out) {
  // Reset to defaults field by field (rather than `out = Envelope{}`) so the
  // body vector keeps its capacity across reuse.
  out.version = kProtocolVersion;
  out.type = MessageType::hello;
  out.xid = 0;
  out.epoch = 0;
  out.queue_status = 0;
  out.throttle_hint = 0;
  out.ts_us = 0;
  out.ts_echo_us = 0;
  out.master_epoch = 0;
  out.retry_after_ms = 0;
  out.body.clear();
  bool saw_type = false;
  auto status = decode_message(
      data, out, [&saw_type](WireDecoder& dec, const FieldHeader& header, Envelope& envelope) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, envelope.version);
          case 2:
            saw_type = true;
            return assign_varint(dec, header, envelope.type);
          case 3: return assign_varint(dec, header, envelope.xid);
          case 4: {
            std::span<const std::uint8_t> bytes;
            if (!expect_bytes(dec, header, bytes)) return false;
            envelope.body.assign(bytes.begin(), bytes.end());
            return true;
          }
          case 5: return assign_varint(dec, header, envelope.epoch);
          case 6: return assign_varint(dec, header, envelope.queue_status);
          case 7: return assign_varint(dec, header, envelope.throttle_hint);
          case 8: return assign_varint(dec, header, envelope.ts_us);
          case 9: return assign_varint(dec, header, envelope.ts_echo_us);
          case 10: return assign_varint(dec, header, envelope.master_epoch);
          case 11: return assign_varint(dec, header, envelope.retry_after_ms);
          default: return dec.try_skip(header.type);
        }
      });
  if (!status.ok()) return status;
  if (!saw_type) return Error::decode_failure("envelope missing type");
  return {};
}

// -------------------------------------------------------------------- Hello

void Hello::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, enb_id);
  enc.field_string(2, name);
  enc.field_varint(3, n_cells);
  for (const auto& cap : capabilities) enc.field_string(4, cap);
  if (epoch != 0) enc.field_varint(5, epoch);
}

Result<Hello> Hello::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<Hello>(data, [](WireDecoder& dec, const FieldHeader& header, Hello& out) {
    switch (header.field) {
      case 1: return assign_varint(dec, header, out.enb_id);
      case 2: return expect_string(dec, header, out.name);
      case 3: return assign_varint(dec, header, out.n_cells);
      case 4: return expect_string(dec, header, out.capabilities.emplace_back());
      case 5: return assign_varint(dec, header, out.epoch);
      default: return dec.try_skip(header.type);
    }
  });
}

// --------------------------------------------------------------------- Echo

void EchoRequest::encode_body(WireEncoder& enc) const {
  enc.field_svarint(1, subframe);
  enc.field_svarint(2, timestamp_us);
}

Result<EchoRequest> EchoRequest::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<EchoRequest>(
      data, [](WireDecoder& dec, const FieldHeader& header, EchoRequest& out) {
        switch (header.field) {
          case 1: return assign_svarint(dec, header, out.subframe);
          case 2: return assign_svarint(dec, header, out.timestamp_us);
          default: return dec.try_skip(header.type);
        }
      });
}

void EchoReply::encode_body(WireEncoder& enc) const {
  enc.field_svarint(1, subframe);
  enc.field_svarint(2, echoed_timestamp_us);
}

Result<EchoReply> EchoReply::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<EchoReply>(
      data, [](WireDecoder& dec, const FieldHeader& header, EchoReply& out) {
        switch (header.field) {
          case 1: return assign_svarint(dec, header, out.subframe);
          case 2: return assign_svarint(dec, header, out.echoed_timestamp_us);
          default: return dec.try_skip(header.type);
        }
      });
}

// ------------------------------------------------------------- cell configs

CellConfigMsg CellConfigMsg::from(const lte::CellConfig& config) {
  CellConfigMsg msg;
  msg.cell_id = config.cell_id;
  msg.bandwidth_mhz = config.bandwidth_mhz;
  msg.duplex = static_cast<std::uint8_t>(config.duplex);
  msg.tx_mode = static_cast<std::uint8_t>(config.tx_mode);
  msg.antenna_ports = static_cast<std::uint8_t>(config.antenna_ports);
  msg.band = static_cast<std::uint16_t>(config.band);
  msg.pci = static_cast<std::uint16_t>(config.pci);
  return msg;
}

lte::CellConfig CellConfigMsg::to_cell_config() const {
  lte::CellConfig config;
  config.cell_id = cell_id;
  config.bandwidth_mhz = bandwidth_mhz;
  config.duplex = static_cast<lte::Duplex>(duplex);
  config.tx_mode = static_cast<lte::TransmissionMode>(tx_mode);
  config.antenna_ports = antenna_ports;
  config.band = band;
  config.pci = pci;
  return config;
}

namespace {

// Nested encoders write straight into the parent encoder via begin_message/
// end_message: no per-sub-message WireEncoder, no copy, same bytes.
void encode_cell_config(WireEncoder& enc, int field, const CellConfigMsg& cell) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, cell.cell_id);
  enc.field_double(2, cell.bandwidth_mhz);
  enc.field_varint(3, cell.duplex);
  enc.field_varint(4, cell.tx_mode);
  enc.field_varint(5, cell.antenna_ports);
  enc.field_varint(6, cell.band);
  enc.field_varint(7, cell.pci);
  enc.end_message(mark);
}

bool cell_config_field(WireDecoder& dec, const FieldHeader& header, CellConfigMsg& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.cell_id);
    case 2: return expect_double(dec, header, out.bandwidth_mhz);
    case 3: return assign_varint(dec, header, out.duplex);
    case 4: return assign_varint(dec, header, out.tx_mode);
    case 5: return assign_varint(dec, header, out.antenna_ports);
    case 6: return assign_varint(dec, header, out.band);
    case 7: return assign_varint(dec, header, out.pci);
    default: return dec.try_skip(header.type);
  }
}

}  // namespace

void EnbConfigReply::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, enb_id);
  for (const auto& cell : cells) encode_cell_config(enc, 2, cell);
}

bool detail::enb_config_reply_field(WireDecoder& dec, const FieldHeader& header,
                                    EnbConfigReply& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.enb_id);
    case 2: return decode_nested(dec, header, out.cells.emplace_back(), cell_config_field);
    default: return dec.try_skip(header.type);
  }
}

Result<EnbConfigReply> EnbConfigReply::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<EnbConfigReply>(data, enb_config_reply_field);
}

// --------------------------------------------------------------- UE configs

UeConfigMsg UeConfigMsg::from(const lte::UeConfig& config) {
  UeConfigMsg msg;
  msg.rnti = config.rnti;
  msg.primary_cell = config.primary_cell;
  msg.tx_mode = static_cast<std::uint8_t>(config.tx_mode);
  msg.ue_category = static_cast<std::uint8_t>(config.ue_category);
  msg.carrier_aggregation = config.carrier_aggregation;
  return msg;
}

lte::UeConfig UeConfigMsg::to_ue_config() const {
  lte::UeConfig config;
  config.rnti = rnti;
  config.primary_cell = primary_cell;
  config.tx_mode = static_cast<lte::TransmissionMode>(tx_mode);
  config.ue_category = ue_category;
  config.carrier_aggregation = carrier_aggregation;
  return config;
}

namespace {

void encode_ue_config(WireEncoder& enc, int field, const UeConfigMsg& ue) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, ue.rnti);
  enc.field_varint(2, ue.primary_cell);
  enc.field_varint(3, ue.tx_mode);
  enc.field_varint(4, ue.ue_category);
  enc.field_bool(5, ue.carrier_aggregation);
  enc.end_message(mark);
}

bool ue_config_field(WireDecoder& dec, const FieldHeader& header, UeConfigMsg& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.rnti);
    case 2: return assign_varint(dec, header, out.primary_cell);
    case 3: return assign_varint(dec, header, out.tx_mode);
    case 4: return assign_varint(dec, header, out.ue_category);
    case 5: return assign_varint(dec, header, out.carrier_aggregation);
    default: return dec.try_skip(header.type);
  }
}

}  // namespace

void UeConfigReply::encode_body(WireEncoder& enc) const {
  for (const auto& ue : ues) encode_ue_config(enc, 1, ue);
}

Result<UeConfigReply> UeConfigReply::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<UeConfigReply>(
      data, [](WireDecoder& dec, const FieldHeader& header, UeConfigReply& out) {
        if (header.field != 1) return dec.try_skip(header.type);
        return decode_nested(dec, header, out.ues.emplace_back(), ue_config_field);
      });
}

// --------------------------------------------------------------- LC configs

void LcConfigReply::encode_body(WireEncoder& enc) const {
  for (const auto& lc : channels) {
    const auto mark = enc.begin_message(1);
    enc.field_varint(1, lc.rnti);
    enc.field_varint(2, lc.lcid);
    enc.field_varint(3, lc.lc_group);
    enc.end_message(mark);
  }
}

Result<LcConfigReply> LcConfigReply::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<LcConfigReply>(
      data, [](WireDecoder& dec, const FieldHeader& header, LcConfigReply& out) {
        if (header.field != 1) return dec.try_skip(header.type);
        return decode_nested(
            dec, header, out.channels.emplace_back(),
            [](WireDecoder& sub, const FieldHeader& sub_header, LcConfigMsg& lc) {
              switch (sub_header.field) {
                case 1: return assign_varint(sub, sub_header, lc.rnti);
                case 2: return assign_varint(sub, sub_header, lc.lcid);
                case 3: return assign_varint(sub, sub_header, lc.lc_group);
                default: return sub.try_skip(sub_header.type);
              }
            });
      });
}

// -------------------------------------------------------------------- stats

void StatsRequest::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, request_id);
  enc.field_varint(2, static_cast<std::uint64_t>(mode));
  enc.field_varint(3, periodicity_ttis);
  enc.field_varint(4, flags);
  for (auto rnti : ues) enc.field_varint(5, rnti);
}

bool detail::stats_request_field(WireDecoder& dec, const FieldHeader& header,
                                 StatsRequest& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.request_id);
    case 2: return assign_varint(dec, header, out.mode);
    case 3: return assign_varint(dec, header, out.periodicity_ttis);
    case 4: return assign_varint(dec, header, out.flags);
    case 5: return assign_varint(dec, header, out.ues.emplace_back());
    default: return dec.try_skip(header.type);
  }
}

Result<StatsRequest> StatsRequest::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<StatsRequest>(data, stats_request_field);
}

namespace {

void encode_ue_report(WireEncoder& enc, int field, const UeStatsReport& report) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, report.rnti);
  for (auto bsr : report.bsr_bytes) enc.field_varint(2, bsr);
  enc.field_svarint(3, report.phr_db);
  enc.field_varint(4, report.wb_cqi);
  enc.field_varint(5, report.rlc_queue_bytes);
  if (report.pending_harq != 0) enc.field_varint(6, report.pending_harq);
  if (report.dl_bytes_delivered != 0) enc.field_varint(7, report.dl_bytes_delivered);
  if (report.ul_bytes_received != 0) enc.field_varint(8, report.ul_bytes_received);
  if (report.wb_cqi_protected != 0) enc.field_varint(9, report.wb_cqi_protected);
  if (report.ul_buffer_bytes != 0) enc.field_varint(11, report.ul_buffer_bytes);
  for (const auto& measurement : report.rsrp) {
    const auto sub = enc.begin_message(10);
    enc.field_varint(1, measurement.cell_id);
    // llround (not truncation) so decode -> re-encode is a fixpoint.
    enc.field_svarint(2, std::llround(measurement.rsrp_dbm * 100.0));
    enc.end_message(sub);
  }
  enc.end_message(mark);
}

/// Resets a report to struct defaults without releasing rsrp capacity.
void reset_ue_report(UeStatsReport& out) {
  out.rnti = lte::kInvalidRnti;
  out.bsr_bytes.fill(0);
  out.phr_db = 20;
  out.wb_cqi = 0;
  out.wb_cqi_protected = 0;
  out.rlc_queue_bytes = 0;
  out.pending_harq = 0;
  out.dl_bytes_delivered = 0;
  out.ul_bytes_received = 0;
  out.ul_buffer_bytes = 0;
  out.rsrp.clear();
}

bool rsrp_field(WireDecoder& dec, const FieldHeader& header, RsrpMeasurement& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.cell_id);
    case 2: {
      std::uint64_t value = 0;
      if (!expect_varint(dec, header, value)) return false;
      out.rsrp_dbm = static_cast<double>(zigzag_decode(value)) / 100.0;
      return true;
    }
    default: return dec.try_skip(header.type);
  }
}

/// Decodes the current field's UE report over `out`, reusing its rsrp block.
bool decode_ue_report(WireDecoder& dec, const FieldHeader& header, UeStatsReport& out) {
  reset_ue_report(out);
  std::size_t bsr_index = 0;
  return decode_nested(
      dec, header, out,
      [&bsr_index](WireDecoder& sub, const FieldHeader& sub_header, UeStatsReport& report) {
        switch (sub_header.field) {
          case 1: return assign_varint(sub, sub_header, report.rnti);
          case 2: {
            std::uint64_t value = 0;
            if (!expect_varint(sub, sub_header, value)) return false;
            if (bsr_index < report.bsr_bytes.size()) {
              report.bsr_bytes[bsr_index++] = static_cast<std::uint32_t>(value);
            } else {
              // Keep the message but make the information loss visible: a
              // peer with more LC groups than we model is an anomaly worth
              // counting, not a decode failure (forward compatibility keeps
              // the session up).
              decode_anomalies().bsr_overflow.fetch_add(1, std::memory_order_relaxed);
            }
            return true;
          }
          case 3: return assign_svarint(sub, sub_header, report.phr_db);
          case 4: return assign_varint(sub, sub_header, report.wb_cqi);
          case 5: return assign_varint(sub, sub_header, report.rlc_queue_bytes);
          case 6: return assign_varint(sub, sub_header, report.pending_harq);
          case 7: return assign_varint(sub, sub_header, report.dl_bytes_delivered);
          case 8: return assign_varint(sub, sub_header, report.ul_bytes_received);
          case 9: return assign_varint(sub, sub_header, report.wb_cqi_protected);
          case 10: return decode_nested(sub, sub_header, report.rsrp.emplace_back(), rsrp_field);
          case 11: return assign_varint(sub, sub_header, report.ul_buffer_bytes);
          default: return sub.try_skip(sub_header.type);
        }
      });
}

void encode_cell_report(WireEncoder& enc, int field, const CellStatsReport& report) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, report.cell_id);
  enc.field_double(2, report.noise_interference_dbm);
  enc.field_varint(3, report.dl_prbs_in_use);
  enc.field_varint(4, report.ul_prbs_in_use);
  enc.field_varint(5, report.active_ues);
  enc.end_message(mark);
}

bool cell_report_field(WireDecoder& dec, const FieldHeader& header, CellStatsReport& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.cell_id);
    case 2: return expect_double(dec, header, out.noise_interference_dbm);
    case 3: return assign_varint(dec, header, out.dl_prbs_in_use);
    case 4: return assign_varint(dec, header, out.ul_prbs_in_use);
    case 5: return assign_varint(dec, header, out.active_ues);
    default: return dec.try_skip(header.type);
  }
}

}  // namespace

void StatsReply::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, request_id);
  enc.field_svarint(2, subframe);
  for (const auto& report : ue_reports) encode_ue_report(enc, 3, report);
  for (const auto& report : cell_reports) encode_cell_report(enc, 4, report);
}

Result<StatsReply> StatsReply::decode_body(std::span<const std::uint8_t> data) {
  StatsReply out;
  auto status = decode_body_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

Status StatsReply::decode_body_into(std::span<const std::uint8_t> data, StatsReply& out) {
  out.request_id = 0;
  out.subframe = 0;
  // Decode over the existing report slots so their heap blocks (the vectors
  // themselves and each report's rsrp) are reused; trim to the decoded count
  // at the end. A same-shape reply touches no allocator at all.
  std::size_t n_ue = 0;
  std::size_t n_cell = 0;
  auto status = decode_message(
      data, out, [&](WireDecoder& dec, const FieldHeader& header, StatsReply& reply) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, reply.request_id);
          case 2: return assign_svarint(dec, header, reply.subframe);
          case 3:
            if (n_ue == reply.ue_reports.size()) reply.ue_reports.emplace_back();
            return decode_ue_report(dec, header, reply.ue_reports[n_ue++]);
          case 4:
            if (n_cell == reply.cell_reports.size()) reply.cell_reports.emplace_back();
            reply.cell_reports[n_cell] = CellStatsReport{};
            return decode_nested(dec, header, reply.cell_reports[n_cell++], cell_report_field);
          default: return dec.try_skip(header.type);
        }
      });
  if (!status.ok()) return status;
  out.ue_reports.resize(n_ue);
  out.cell_reports.resize(n_cell);
  return {};
}

// ----------------------------------------------------------------- commands

namespace {

void encode_dl_dci(WireEncoder& enc, int field, const lte::DlDci& dci) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, dci.rnti);
  enc.field_varint(2, dci.rbs.word(0));
  if (dci.rbs.word(1) != 0) enc.field_varint(3, dci.rbs.word(1));
  enc.field_varint(4, static_cast<std::uint64_t>(dci.mcs));
  enc.field_varint(5, dci.harq_pid);
  enc.field_bool(6, dci.new_data);
  if (dci.carrier != 0) enc.field_varint(7, dci.carrier);
  enc.end_message(mark);
}

/// Decodes the current field's DCI; the RB bitmap travels as two words.
bool decode_dl_dci(WireDecoder& dec, const FieldHeader& header, lte::DlDci& out) {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  const bool ok = decode_nested(
      dec, header, out, [&](WireDecoder& sub, const FieldHeader& sub_header, lte::DlDci& dci) {
        switch (sub_header.field) {
          case 1: return assign_varint(sub, sub_header, dci.rnti);
          case 2: return assign_varint(sub, sub_header, w0);
          case 3: return assign_varint(sub, sub_header, w1);
          case 4: return assign_varint(sub, sub_header, dci.mcs);
          case 5: return assign_varint(sub, sub_header, dci.harq_pid);
          case 6: return assign_varint(sub, sub_header, dci.new_data);
          case 7: return assign_varint(sub, sub_header, dci.carrier);
          default: return sub.try_skip(sub_header.type);
        }
      });
  out.rbs = lte::RbAllocation::from_words(w0, w1);
  return ok;
}

void encode_ul_dci(WireEncoder& enc, int field, const lte::UlDci& dci) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, dci.rnti);
  enc.field_varint(2, dci.rbs.word(0));
  if (dci.rbs.word(1) != 0) enc.field_varint(3, dci.rbs.word(1));
  enc.field_varint(4, static_cast<std::uint64_t>(dci.mcs));
  enc.end_message(mark);
}

bool decode_ul_dci(WireDecoder& dec, const FieldHeader& header, lte::UlDci& out) {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  const bool ok = decode_nested(
      dec, header, out, [&](WireDecoder& sub, const FieldHeader& sub_header, lte::UlDci& dci) {
        switch (sub_header.field) {
          case 1: return assign_varint(sub, sub_header, dci.rnti);
          case 2: return assign_varint(sub, sub_header, w0);
          case 3: return assign_varint(sub, sub_header, w1);
          case 4: return assign_varint(sub, sub_header, dci.mcs);
          default: return sub.try_skip(sub_header.type);
        }
      });
  out.rbs = lte::RbAllocation::from_words(w0, w1);
  return ok;
}

}  // namespace

void DlMacConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_svarint(2, target_subframe);
  for (const auto& dci : dcis) encode_dl_dci(enc, 3, dci);
}

Result<DlMacConfig> DlMacConfig::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<DlMacConfig>(
      data, [](WireDecoder& dec, const FieldHeader& header, DlMacConfig& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.cell_id);
          case 2: return assign_svarint(dec, header, out.target_subframe);
          case 3: return decode_dl_dci(dec, header, out.dcis.emplace_back());
          default: return dec.try_skip(header.type);
        }
      });
}

void UlMacConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_svarint(2, target_subframe);
  for (const auto& dci : dcis) encode_ul_dci(enc, 3, dci);
}

Result<UlMacConfig> UlMacConfig::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<UlMacConfig>(
      data, [](WireDecoder& dec, const FieldHeader& header, UlMacConfig& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.cell_id);
          case 2: return assign_svarint(dec, header, out.target_subframe);
          case 3: return decode_ul_dci(dec, header, out.dcis.emplace_back());
          default: return dec.try_skip(header.type);
        }
      });
}

void HandoverCommand::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_varint(2, source_cell);
  enc.field_varint(3, target_cell);
}

Result<HandoverCommand> HandoverCommand::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<HandoverCommand>(
      data, [](WireDecoder& dec, const FieldHeader& header, HandoverCommand& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.rnti);
          case 2: return assign_varint(dec, header, out.source_cell);
          case 3: return assign_varint(dec, header, out.target_cell);
          default: return dec.try_skip(header.type);
        }
      });
}

void AbsConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_varint(2, pattern.to_bits());
  enc.field_bool(3, mute_during_abs);
}

Result<AbsConfig> AbsConfig::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<AbsConfig>(
      data, [](WireDecoder& dec, const FieldHeader& header, AbsConfig& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.cell_id);
          case 2: {
            std::uint64_t bits = 0;
            if (!expect_varint(dec, header, bits)) return false;
            out.pattern = lte::AbsPattern::from_bits(bits);
            return true;
          }
          case 3: return assign_varint(dec, header, out.mute_during_abs);
          default: return dec.try_skip(header.type);
        }
      });
}

void CarrierRestriction::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_varint(2, max_dl_prbs);
}

Result<CarrierRestriction> CarrierRestriction::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<CarrierRestriction>(
      data, [](WireDecoder& dec, const FieldHeader& header, CarrierRestriction& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.cell_id);
          case 2: return assign_varint(dec, header, out.max_dl_prbs);
          default: return dec.try_skip(header.type);
        }
      });
}

void DrxConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_varint(2, cycle_ttis);
  enc.field_varint(3, on_duration_ttis);
}

Result<DrxConfig> DrxConfig::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<DrxConfig>(
      data, [](WireDecoder& dec, const FieldHeader& header, DrxConfig& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.rnti);
          case 2: return assign_varint(dec, header, out.cycle_ttis);
          case 3: return assign_varint(dec, header, out.on_duration_ttis);
          default: return dec.try_skip(header.type);
        }
      });
}

void ScellCommand::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_bool(2, activate);
}

Result<ScellCommand> ScellCommand::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<ScellCommand>(
      data, [](WireDecoder& dec, const FieldHeader& header, ScellCommand& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.rnti);
          case 2: return assign_varint(dec, header, out.activate);
          default: return dec.try_skip(header.type);
        }
      });
}

// ------------------------------------------------------------------- events

void EventNotification::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, static_cast<std::uint64_t>(event));
  enc.field_svarint(2, subframe);
  if (rnti != lte::kInvalidRnti) enc.field_varint(3, rnti);
  if (cell_id != 0) enc.field_varint(4, cell_id);
  if (xid != 0) enc.field_varint(5, xid);
  if (!module.empty()) enc.field_string(6, module);
  if (!vsf.empty()) enc.field_string(7, vsf);
  if (!implementation.empty()) enc.field_string(8, implementation);
  if (failure_kind != VsfFailureKind::none) {
    enc.field_varint(9, static_cast<std::uint64_t>(failure_kind));
  }
  if (failure_count != 0) enc.field_varint(10, failure_count);
  if (!detail.empty()) enc.field_string(11, detail);
  if (overload_state != 0) enc.field_varint(12, overload_state);
}

Result<EventNotification> EventNotification::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<EventNotification>(
      data, [](WireDecoder& dec, const FieldHeader& header, EventNotification& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.event);
          case 2: return assign_svarint(dec, header, out.subframe);
          case 3: return assign_varint(dec, header, out.rnti);
          case 4: return assign_varint(dec, header, out.cell_id);
          case 5: return assign_varint(dec, header, out.xid);
          case 6: return expect_string(dec, header, out.module);
          case 7: return expect_string(dec, header, out.vsf);
          case 8: return expect_string(dec, header, out.implementation);
          case 9: return assign_varint(dec, header, out.failure_kind);
          case 10: return assign_varint(dec, header, out.failure_count);
          case 11: return expect_string(dec, header, out.detail);
          case 12: return assign_varint(dec, header, out.overload_state);
          default: return dec.try_skip(header.type);
        }
      });
}

void EventSubscription::encode_body(WireEncoder& enc) const {
  for (const auto event : events) enc.field_varint(1, static_cast<std::uint64_t>(event));
  enc.field_bool(2, enable);
}

Result<EventSubscription> EventSubscription::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<EventSubscription>(
      data, [](WireDecoder& dec, const FieldHeader& header, EventSubscription& out) {
        switch (header.field) {
          case 1: return assign_varint(dec, header, out.events.emplace_back());
          case 2: return assign_varint(dec, header, out.enable);
          default: return dec.try_skip(header.type);
        }
      });
}

// --------------------------------------------------------------- delegation

void ControlDelegation::encode_body(WireEncoder& enc) const {
  enc.field_string(1, module);
  enc.field_string(2, vsf);
  enc.field_string(3, implementation);
  enc.field_varint(4, version);
  if (!blob.empty()) enc.field_bytes(5, blob);
}

Result<ControlDelegation> ControlDelegation::decode_body(std::span<const std::uint8_t> data) {
  return decode_message<ControlDelegation>(
      data, [](WireDecoder& dec, const FieldHeader& header, ControlDelegation& out) {
        switch (header.field) {
          case 1: return expect_string(dec, header, out.module);
          case 2: return expect_string(dec, header, out.vsf);
          case 3: return expect_string(dec, header, out.implementation);
          case 4: return assign_varint(dec, header, out.version);
          case 5: {
            std::span<const std::uint8_t> bytes;
            if (!expect_bytes(dec, header, bytes)) return false;
            out.blob.assign(bytes.begin(), bytes.end());
            return true;
          }
          default: return dec.try_skip(header.type);
        }
      });
}

void PolicyReconfiguration::encode_body(WireEncoder& enc) const { enc.field_string(1, yaml); }

Result<PolicyReconfiguration> PolicyReconfiguration::decode_body(
    std::span<const std::uint8_t> data) {
  return decode_message<PolicyReconfiguration>(
      data, [](WireDecoder& dec, const FieldHeader& header, PolicyReconfiguration& out) {
        if (header.field != 1) return dec.try_skip(header.type);
        return expect_string(dec, header, out.yaml);
      });
}

// ------------------------------------------------------------------ helpers

DecodeAnomalies& decode_anomalies() {
  static DecodeAnomalies anomalies;
  return anomalies;
}

MessageCategory categorize(MessageType type) {
  switch (type) {
    case MessageType::stats_request:
    case MessageType::stats_reply:
      return MessageCategory::stats;
    case MessageType::dl_mac_config:
    case MessageType::ul_mac_config:
    case MessageType::handover_command:
    case MessageType::abs_config:
    case MessageType::carrier_restriction:
    case MessageType::drx_config:
    case MessageType::scell_command:
      return MessageCategory::commands;
    case MessageType::control_delegation:
    case MessageType::policy_reconfiguration:
      return MessageCategory::delegation;
    default:
      return MessageCategory::agent_management;
  }
}

MessageCategory categorize(MessageType type, const std::vector<std::uint8_t>& body) {
  if (type == MessageType::event_notification) {
    auto event = EventNotification::decode_body(body);
    if (event.ok() && event->event == EventType::subframe_tick) return MessageCategory::sync;
    return MessageCategory::agent_management;
  }
  return categorize(type);
}

net::TrafficClass traffic_class(MessageType type) {
  switch (type) {
    case MessageType::hello:
    case MessageType::echo_request:
    case MessageType::echo_reply:
      return net::TrafficClass::session;
    case MessageType::dl_mac_config:
    case MessageType::ul_mac_config:
    case MessageType::handover_command:
    case MessageType::abs_config:
    case MessageType::carrier_restriction:
    case MessageType::drx_config:
    case MessageType::scell_command:
    case MessageType::control_delegation:
    case MessageType::policy_reconfiguration:
      return net::TrafficClass::command;
    case MessageType::stats_reply:
      return net::TrafficClass::stats;
    case MessageType::event_notification:
      return net::TrafficClass::event;
    default:
      // Config exchange, stats requests, event subscriptions: negotiated
      // state the peer waits on -- never shed.
      return net::TrafficClass::config;
  }
}

net::TrafficClass traffic_class(MessageType type, const std::vector<std::uint8_t>& body) {
  if (type == MessageType::event_notification) {
    auto event = EventNotification::decode_body(body);
    if (event.ok() && event->event == EventType::subframe_tick) return net::TrafficClass::sync;
    return net::TrafficClass::event;
  }
  return traffic_class(type);
}

DlMacConfig to_dl_mac_config(const lte::SchedulingDecision& decision) {
  DlMacConfig msg;
  msg.cell_id = decision.cell_id;
  msg.target_subframe = decision.subframe;
  msg.dcis = decision.dl;
  return msg;
}

}  // namespace flexran::proto
