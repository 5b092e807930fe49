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
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.version, std::uint8_t); return true;
      case 2: {
        ASSIGN_VARINT(out.type, MessageType);
        saw_type = true;
        return true;
      }
      case 3: ASSIGN_VARINT(out.xid, std::uint32_t); return true;
      case 4: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        out.body.assign(bytes->begin(), bytes->end());
        return true;
      }
      case 5: ASSIGN_VARINT(out.epoch, std::uint32_t); return true;
      case 6: ASSIGN_VARINT(out.queue_status, std::uint8_t); return true;
      case 7: ASSIGN_VARINT(out.throttle_hint, std::uint32_t); return true;
      case 8: ASSIGN_VARINT(out.ts_us, std::uint64_t); return true;
      case 9: ASSIGN_VARINT(out.ts_echo_us, std::uint64_t); return true;
      case 10: ASSIGN_VARINT(out.master_epoch, std::uint32_t); return true;
      case 11: ASSIGN_VARINT(out.retry_after_ms, std::uint32_t); return true;
      default: return false;
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
  Hello out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.enb_id, lte::EnbId); return true;
      case 2: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        out.name = std::move(*s);
        return true;
      }
      case 3: ASSIGN_VARINT(out.n_cells, std::uint32_t); return true;
      case 4: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        out.capabilities.push_back(std::move(*s));
        return true;
      }
      case 5: ASSIGN_VARINT(out.epoch, std::uint32_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

// --------------------------------------------------------------------- Echo

void EchoRequest::encode_body(WireEncoder& enc) const {
  enc.field_svarint(1, subframe);
  enc.field_svarint(2, timestamp_us);
}

Result<EchoRequest> EchoRequest::decode_body(std::span<const std::uint8_t> data) {
  EchoRequest out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_SVARINT(out.subframe); return true;
      case 2: ASSIGN_SVARINT(out.timestamp_us); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void EchoReply::encode_body(WireEncoder& enc) const {
  enc.field_svarint(1, subframe);
  enc.field_svarint(2, echoed_timestamp_us);
}

Result<EchoReply> EchoReply::decode_body(std::span<const std::uint8_t> data) {
  EchoReply out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_SVARINT(out.subframe); return true;
      case 2: ASSIGN_SVARINT(out.echoed_timestamp_us); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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

Result<CellConfigMsg> decode_cell_config(std::span<const std::uint8_t> data) {
  CellConfigMsg out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 2: {
        auto v = expect_double(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        out.bandwidth_mhz = *v;
        return true;
      }
      case 3: ASSIGN_VARINT(out.duplex, std::uint8_t); return true;
      case 4: ASSIGN_VARINT(out.tx_mode, std::uint8_t); return true;
      case 5: ASSIGN_VARINT(out.antenna_ports, std::uint8_t); return true;
      case 6: ASSIGN_VARINT(out.band, std::uint16_t); return true;
      case 7: ASSIGN_VARINT(out.pci, std::uint16_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

}  // namespace

void EnbConfigReply::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, enb_id);
  for (const auto& cell : cells) encode_cell_config(enc, 2, cell);
}

Result<EnbConfigReply> EnbConfigReply::decode_body(std::span<const std::uint8_t> data) {
  EnbConfigReply out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.enb_id, lte::EnbId); return true;
      case 2: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto cell = decode_cell_config(*bytes);
        if (!cell.ok()) return Result<bool>(cell.error());
        out.cells.push_back(std::move(*cell));
        return true;
      }
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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

Result<UeConfigMsg> decode_ue_config(std::span<const std::uint8_t> data) {
  UeConfigMsg out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: ASSIGN_VARINT(out.primary_cell, lte::CellId); return true;
      case 3: ASSIGN_VARINT(out.tx_mode, std::uint8_t); return true;
      case 4: ASSIGN_VARINT(out.ue_category, std::uint8_t); return true;
      case 5: ASSIGN_VARINT(out.carrier_aggregation, bool); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

}  // namespace

void UeConfigReply::encode_body(WireEncoder& enc) const {
  for (const auto& ue : ues) encode_ue_config(enc, 1, ue);
}

Result<UeConfigReply> UeConfigReply::decode_body(std::span<const std::uint8_t> data) {
  UeConfigReply out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    if (header.field != 1) return false;
    auto bytes = expect_bytes(dec, header);
    if (!bytes.ok()) return Result<bool>(bytes.error());
    auto ue = decode_ue_config(*bytes);
    if (!ue.ok()) return Result<bool>(ue.error());
    out.ues.push_back(std::move(*ue));
    return true;
  });
  if (!status.ok()) return status.error();
  return out;
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
  LcConfigReply out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    if (header.field != 1) return false;
    auto bytes = expect_bytes(dec, header);
    if (!bytes.ok()) return Result<bool>(bytes.error());
    LcConfigMsg lc;
    auto sub_status =
        decode_fields(*bytes, [&](WireDecoder& sub_dec,
                                  const WireDecoder::FieldHeader& sub_header) -> Result<bool> {
          auto& dec = sub_dec;
          const auto& header = sub_header;
          switch (header.field) {
            case 1: ASSIGN_VARINT(lc.rnti, lte::Rnti); return true;
            case 2: ASSIGN_VARINT(lc.lcid, lte::Lcid); return true;
            case 3: ASSIGN_VARINT(lc.lc_group, std::uint8_t); return true;
            default: return false;
          }
        });
    if (!sub_status.ok()) return Result<bool>(sub_status.error());
    out.channels.push_back(lc);
    return true;
  });
  if (!status.ok()) return status.error();
  return out;
}

// -------------------------------------------------------------------- stats

void StatsRequest::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, request_id);
  enc.field_varint(2, static_cast<std::uint64_t>(mode));
  enc.field_varint(3, periodicity_ttis);
  enc.field_varint(4, flags);
  for (auto rnti : ues) enc.field_varint(5, rnti);
}

Result<StatsRequest> StatsRequest::decode_body(std::span<const std::uint8_t> data) {
  StatsRequest out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.request_id, std::uint32_t); return true;
      case 2: ASSIGN_VARINT(out.mode, ReportMode); return true;
      case 3: ASSIGN_VARINT(out.periodicity_ttis, std::uint32_t); return true;
      case 4: ASSIGN_VARINT(out.flags, std::uint32_t); return true;
      case 5: {
        auto v = expect_varint(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        out.ues.push_back(static_cast<lte::Rnti>(*v));
        return true;
      }
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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

Status decode_ue_report_into(std::span<const std::uint8_t> data, UeStatsReport& out) {
  reset_ue_report(out);
  std::size_t bsr_index = 0;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: {
        auto v = expect_varint(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        if (bsr_index < out.bsr_bytes.size()) {
          out.bsr_bytes[bsr_index++] = static_cast<std::uint32_t>(*v);
        } else {
          // Keep the message but make the information loss visible: a peer
          // with more LC groups than we model is an anomaly worth counting,
          // not a decode failure (forward compatibility keeps the session up).
          decode_anomalies().bsr_overflow.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
      case 3: {
        auto v = expect_varint(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        out.phr_db = static_cast<std::int32_t>(zigzag_decode(*v));
        return true;
      }
      case 4: ASSIGN_VARINT(out.wb_cqi, std::uint8_t); return true;
      case 5: ASSIGN_VARINT(out.rlc_queue_bytes, std::uint32_t); return true;
      case 6: ASSIGN_VARINT(out.pending_harq, std::uint32_t); return true;
      case 7: ASSIGN_VARINT(out.dl_bytes_delivered, std::uint64_t); return true;
      case 8: ASSIGN_VARINT(out.ul_bytes_received, std::uint64_t); return true;
      case 9: ASSIGN_VARINT(out.wb_cqi_protected, std::uint8_t); return true;
      case 11: ASSIGN_VARINT(out.ul_buffer_bytes, std::uint32_t); return true;
      case 10: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        RsrpMeasurement measurement;
        auto sub_status = decode_fields(
            *bytes, [&](WireDecoder& sub_dec,
                        const WireDecoder::FieldHeader& sub_header) -> Result<bool> {
              auto& dec = sub_dec;
              const auto& header = sub_header;
              switch (header.field) {
                case 1: ASSIGN_VARINT(measurement.cell_id, lte::CellId); return true;
                case 2: {
                  auto v = expect_varint(dec, header);
                  if (!v.ok()) return Result<bool>(v.error());
                  measurement.rsrp_dbm = static_cast<double>(zigzag_decode(*v)) / 100.0;
                  return true;
                }
                default: return false;
              }
            });
        if (!sub_status.ok()) return Result<bool>(sub_status.error());
        out.rsrp.push_back(measurement);
        return true;
      }
      default: return false;
    }
  });
  return status;
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

Result<CellStatsReport> decode_cell_report(std::span<const std::uint8_t> data) {
  CellStatsReport out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 2: {
        auto v = expect_double(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        out.noise_interference_dbm = *v;
        return true;
      }
      case 3: ASSIGN_VARINT(out.dl_prbs_in_use, std::uint32_t); return true;
      case 4: ASSIGN_VARINT(out.ul_prbs_in_use, std::uint32_t); return true;
      case 5: ASSIGN_VARINT(out.active_ues, std::uint32_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.request_id, std::uint32_t); return true;
      case 2: ASSIGN_SVARINT(out.subframe); return true;
      case 3: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        if (n_ue == out.ue_reports.size()) out.ue_reports.emplace_back();
        auto report = decode_ue_report_into(*bytes, out.ue_reports[n_ue]);
        if (!report.ok()) return Result<bool>(report.error());
        ++n_ue;
        return true;
      }
      case 4: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto report = decode_cell_report(*bytes);
        if (!report.ok()) return Result<bool>(report.error());
        if (n_cell == out.cell_reports.size()) out.cell_reports.emplace_back();
        out.cell_reports[n_cell++] = *report;
        return true;
      }
      default: return false;
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

Result<lte::DlDci> decode_dl_dci(std::span<const std::uint8_t> data) {
  lte::DlDci out;
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: ASSIGN_VARINT(w0, std::uint64_t); return true;
      case 3: ASSIGN_VARINT(w1, std::uint64_t); return true;
      case 4: ASSIGN_VARINT(out.mcs, int); return true;
      case 5: ASSIGN_VARINT(out.harq_pid, std::uint8_t); return true;
      case 6: ASSIGN_VARINT(out.new_data, bool); return true;
      case 7: ASSIGN_VARINT(out.carrier, std::uint8_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  out.rbs = lte::RbAllocation::from_words(w0, w1);
  return out;
}

void encode_ul_dci(WireEncoder& enc, int field, const lte::UlDci& dci) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, dci.rnti);
  enc.field_varint(2, dci.rbs.word(0));
  if (dci.rbs.word(1) != 0) enc.field_varint(3, dci.rbs.word(1));
  enc.field_varint(4, static_cast<std::uint64_t>(dci.mcs));
  enc.end_message(mark);
}

Result<lte::UlDci> decode_ul_dci(std::span<const std::uint8_t> data) {
  lte::UlDci out;
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: ASSIGN_VARINT(w0, std::uint64_t); return true;
      case 3: ASSIGN_VARINT(w1, std::uint64_t); return true;
      case 4: ASSIGN_VARINT(out.mcs, int); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  out.rbs = lte::RbAllocation::from_words(w0, w1);
  return out;
}

}  // namespace

void DlMacConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_svarint(2, target_subframe);
  for (const auto& dci : dcis) encode_dl_dci(enc, 3, dci);
}

Result<DlMacConfig> DlMacConfig::decode_body(std::span<const std::uint8_t> data) {
  DlMacConfig out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 2: ASSIGN_SVARINT(out.target_subframe); return true;
      case 3: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto dci = decode_dl_dci(*bytes);
        if (!dci.ok()) return Result<bool>(dci.error());
        out.dcis.push_back(std::move(*dci));
        return true;
      }
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void UlMacConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_svarint(2, target_subframe);
  for (const auto& dci : dcis) encode_ul_dci(enc, 3, dci);
}

Result<UlMacConfig> UlMacConfig::decode_body(std::span<const std::uint8_t> data) {
  UlMacConfig out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 2: ASSIGN_SVARINT(out.target_subframe); return true;
      case 3: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto dci = decode_ul_dci(*bytes);
        if (!dci.ok()) return Result<bool>(dci.error());
        out.dcis.push_back(std::move(*dci));
        return true;
      }
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void HandoverCommand::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_varint(2, source_cell);
  enc.field_varint(3, target_cell);
}

Result<HandoverCommand> HandoverCommand::decode_body(std::span<const std::uint8_t> data) {
  HandoverCommand out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: ASSIGN_VARINT(out.source_cell, lte::CellId); return true;
      case 3: ASSIGN_VARINT(out.target_cell, lte::CellId); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void AbsConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_varint(2, pattern.to_bits());
  enc.field_bool(3, mute_during_abs);
}

Result<AbsConfig> AbsConfig::decode_body(std::span<const std::uint8_t> data) {
  AbsConfig out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 2: {
        auto v = expect_varint(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        out.pattern = lte::AbsPattern::from_bits(*v);
        return true;
      }
      case 3: ASSIGN_VARINT(out.mute_during_abs, bool); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void CarrierRestriction::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_varint(2, max_dl_prbs);
}

Result<CarrierRestriction> CarrierRestriction::decode_body(std::span<const std::uint8_t> data) {
  CarrierRestriction out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 2: ASSIGN_VARINT(out.max_dl_prbs, std::uint16_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void DrxConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_varint(2, cycle_ttis);
  enc.field_varint(3, on_duration_ttis);
}

Result<DrxConfig> DrxConfig::decode_body(std::span<const std::uint8_t> data) {
  DrxConfig out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: ASSIGN_VARINT(out.cycle_ttis, std::uint16_t); return true;
      case 3: ASSIGN_VARINT(out.on_duration_ttis, std::uint16_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void ScellCommand::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_bool(2, activate);
}

Result<ScellCommand> ScellCommand::decode_body(std::span<const std::uint8_t> data) {
  ScellCommand out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 2: ASSIGN_VARINT(out.activate, bool); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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
  EventNotification out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.event, EventType); return true;
      case 2: ASSIGN_SVARINT(out.subframe); return true;
      case 3: ASSIGN_VARINT(out.rnti, lte::Rnti); return true;
      case 4: ASSIGN_VARINT(out.cell_id, lte::CellId); return true;
      case 5: ASSIGN_VARINT(out.xid, std::uint32_t); return true;
      case 6:
      case 7:
      case 8:
      case 11: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        (header.field == 6    ? out.module
         : header.field == 7  ? out.vsf
         : header.field == 8  ? out.implementation
                              : out.detail) = std::move(*s);
        return true;
      }
      case 9: ASSIGN_VARINT(out.failure_kind, VsfFailureKind); return true;
      case 10: ASSIGN_VARINT(out.failure_count, std::uint32_t); return true;
      case 12: ASSIGN_VARINT(out.overload_state, std::uint8_t); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void EventSubscription::encode_body(WireEncoder& enc) const {
  for (const auto event : events) enc.field_varint(1, static_cast<std::uint64_t>(event));
  enc.field_bool(2, enable);
}

Result<EventSubscription> EventSubscription::decode_body(std::span<const std::uint8_t> data) {
  EventSubscription out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: {
        auto v = expect_varint(dec, header);
        if (!v.ok()) return Result<bool>(v.error());
        out.events.push_back(static_cast<EventType>(*v));
        return true;
      }
      case 2: ASSIGN_VARINT(out.enable, bool); return true;
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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
  ControlDelegation out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1:
      case 2:
      case 3: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        (header.field == 1 ? out.module : header.field == 2 ? out.vsf : out.implementation) =
            std::move(*s);
        return true;
      }
      case 4: ASSIGN_VARINT(out.version, std::uint32_t); return true;
      case 5: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        out.blob.assign(bytes->begin(), bytes->end());
        return true;
      }
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
}

void PolicyReconfiguration::encode_body(WireEncoder& enc) const { enc.field_string(1, yaml); }

Result<PolicyReconfiguration> PolicyReconfiguration::decode_body(
    std::span<const std::uint8_t> data) {
  PolicyReconfiguration out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    if (header.field != 1) return false;
    auto s = expect_string(dec, header);
    if (!s.ok()) return Result<bool>(s.error());
    out.yaml = std::move(*s);
    return true;
  });
  if (!status.ok()) return status.error();
  return out;
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

UlMacConfig to_ul_mac_config(const lte::SchedulingDecision& decision) {
  UlMacConfig msg;
  msg.cell_id = decision.cell_id;
  msg.target_subframe = decision.subframe;
  msg.dcis = decision.ul;
  return msg;
}

}  // namespace flexran::proto
