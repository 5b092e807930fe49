#include "proto/messages.h"

#include <iterator>

#include "proto/codec.h"

namespace flexran::proto {

namespace {

using util::Result;
using util::Status;

using namespace detail;

using Category = MessageCategory;
using Class = net::TrafficClass;

/// One row per MessageType: its name, its Fig. 7 accounting bucket and its
/// overload traffic class. Event notifications carry their non-tick answers
/// (a subframe tick is `sync` in both; see classify()). Config exchange,
/// stats requests and event subscriptions are negotiated state the peer
/// waits on, so their class is the never-shed `config`.
struct TypeRow {
  MessageType type;
  const char* name;
  Category category;
  Class traffic;
};

constexpr TypeRow kTypeRows[] = {
    {MessageType::hello, "hello", Category::agent_management, Class::session},
    {MessageType::echo_request, "echo_request", Category::agent_management, Class::session},
    {MessageType::echo_reply, "echo_reply", Category::agent_management, Class::session},
    {MessageType::enb_config_request, "enb_config_request", Category::agent_management,
     Class::config},
    {MessageType::enb_config_reply, "enb_config_reply", Category::agent_management,
     Class::config},
    {MessageType::ue_config_request, "ue_config_request", Category::agent_management,
     Class::config},
    {MessageType::ue_config_reply, "ue_config_reply", Category::agent_management, Class::config},
    {MessageType::lc_config_request, "lc_config_request", Category::agent_management,
     Class::config},
    {MessageType::lc_config_reply, "lc_config_reply", Category::agent_management, Class::config},
    {MessageType::stats_request, "stats_request", Category::stats, Class::config},
    {MessageType::stats_reply, "stats_reply", Category::stats, Class::stats},
    {MessageType::dl_mac_config, "dl_mac_config", Category::commands, Class::command},
    {MessageType::ul_mac_config, "ul_mac_config", Category::commands, Class::command},
    {MessageType::handover_command, "handover_command", Category::commands, Class::command},
    {MessageType::abs_config, "abs_config", Category::commands, Class::command},
    {MessageType::event_notification, "event_notification", Category::agent_management,
     Class::event},
    {MessageType::control_delegation, "control_delegation", Category::delegation,
     Class::command},
    {MessageType::policy_reconfiguration, "policy_reconfiguration", Category::delegation,
     Class::command},
    {MessageType::event_subscription, "event_subscription", Category::agent_management,
     Class::config},
    {MessageType::carrier_restriction, "carrier_restriction", Category::commands,
     Class::command},
    {MessageType::drx_config, "drx_config", Category::commands, Class::command},
    {MessageType::scell_command, "scell_command", Category::commands, Class::command},
};

constexpr bool rows_follow_type_numbers() {
  for (std::size_t i = 0; i < std::size(kTypeRows); ++i) {
    if (static_cast<std::size_t>(kTypeRows[i].type) != i + 1) return false;
  }
  return true;
}
static_assert(rows_follow_type_numbers(), "kTypeRows[i] must describe MessageType i + 1");

/// The row of `type`; a type no row describes (a peer's newer message)
/// reads as "?", agent management, config.
const TypeRow& type_row(MessageType type) {
  static constexpr TypeRow kUnknown{MessageType{}, "?", Category::agent_management,
                                    Class::config};
  const std::size_t index = static_cast<std::size_t>(type) - 1;
  return index < std::size(kTypeRows) ? kTypeRows[index] : kUnknown;
}

}  // namespace

const char* to_string(MessageType type) { return type_row(type).name; }

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
// encode_envelope writes the body in place: the rows before `body` (with the
// message's own type), the body as an open sub-message, then the rows after.

std::vector<std::uint8_t> Envelope::encode() const {
  WireEncoder enc;
  encode_fields(enc, *this);
  return enc.take();
}

std::size_t Envelope::encode_head(WireEncoder& enc, MessageType body_type) const {
  constexpr std::size_t kType = row_index<&Envelope::type>();
  constexpr std::size_t kBody = row_index<&Envelope::body>();
  encode_range<0, kType>(enc, *this);
  RowFor<&Envelope::type>::put(enc, body_type);
  encode_range<kType + 1, kBody>(enc, *this);
  return enc.begin_message(RowFor<&Envelope::body>::kNumber);
}

void Envelope::encode_tail(WireEncoder& enc) const {
  encode_range<row_index<&Envelope::body>() + 1, kTableEnd>(enc, *this);
}

Result<Envelope> Envelope::decode(std::span<const std::uint8_t> data) {
  return decode_fresh<Envelope>(data);
}

Status Envelope::decode_into(std::span<const std::uint8_t> data, Envelope& out) {
  return detail::decode_into(data, out);
}

// ------------------------------------------------------------ message bodies

template <typename M>
Status decode_body_into(std::span<const std::uint8_t> data, M& out) {
  return detail::decode_into(data, out);
}

// Every message body is the generic codec over its table (codec.h).
#define FLEXRAN_PROTO_BODY(M)                                              \
  void M::encode_body(WireEncoder& enc) const { encode_fields(enc, *this); } \
  Result<M> M::decode_body(std::span<const std::uint8_t> data) {           \
    return decode_fresh<M>(data);                                          \
  }                                                                        \
  template Status decode_body_into<M>(std::span<const std::uint8_t>, M&)

FLEXRAN_PROTO_BODY(Hello);
FLEXRAN_PROTO_BODY(EchoRequest);
FLEXRAN_PROTO_BODY(EchoReply);
FLEXRAN_PROTO_BODY(EnbConfigReply);
FLEXRAN_PROTO_BODY(UeConfigReply);
FLEXRAN_PROTO_BODY(LcConfigReply);
FLEXRAN_PROTO_BODY(StatsRequest);
FLEXRAN_PROTO_BODY(StatsReply);
FLEXRAN_PROTO_BODY(DlMacConfig);
FLEXRAN_PROTO_BODY(UlMacConfig);
FLEXRAN_PROTO_BODY(HandoverCommand);
FLEXRAN_PROTO_BODY(AbsConfig);
FLEXRAN_PROTO_BODY(CarrierRestriction);
FLEXRAN_PROTO_BODY(DrxConfig);
FLEXRAN_PROTO_BODY(ScellCommand);
FLEXRAN_PROTO_BODY(EventNotification);
FLEXRAN_PROTO_BODY(EventSubscription);
FLEXRAN_PROTO_BODY(ControlDelegation);
FLEXRAN_PROTO_BODY(PolicyReconfiguration);

#undef FLEXRAN_PROTO_BODY

Status StatsReply::decode_body_into(std::span<const std::uint8_t> data, StatsReply& out) {
  return detail::decode_into(data, out);
}

// ------------------------------------------------------------------ helpers

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

DecodeAnomalies& decode_anomalies() {
  static DecodeAnomalies anomalies;
  return anomalies;
}

MessageClass classify(MessageType type, std::span<const std::uint8_t> body) {
  const TypeRow& row = type_row(type);
  EventType event{};
  if (type == MessageType::event_notification &&
      peek<&EventNotification::event>(body, event) && event == EventType::subframe_tick) {
    return {Category::sync, Class::sync};
  }
  return {row.category, row.traffic};
}

MessageCategory categorize(MessageType type) { return type_row(type).category; }

net::TrafficClass traffic_class(MessageType type) { return type_row(type).traffic; }

std::uint32_t peek_stats_request_id(std::span<const std::uint8_t> body) {
  std::uint32_t request_id = 0;
  return peek<&StatsReply::request_id>(body, request_id) ? request_id : 0;
}

DlMacConfig to_dl_mac_config(const lte::SchedulingDecision& decision) {
  DlMacConfig msg;
  msg.cell_id = decision.cell_id;
  msg.target_subframe = decision.subframe;
  msg.dcis = decision.dl;
  return msg;
}

}  // namespace flexran::proto
