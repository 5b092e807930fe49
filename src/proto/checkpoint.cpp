#include "proto/checkpoint.h"

#include <limits>

#include "proto/decode_helpers.h"

namespace flexran::proto {

namespace {

using util::Error;
using util::Result;
using util::Status;

using namespace detail;

void encode_agent(WireEncoder& enc, const CheckpointAgent& agent) {
  enc.field_varint(1, agent.id);
  enc.field_string(2, agent.name);
  for (const auto& cap : agent.capabilities) enc.field_string(3, cap);
  if (agent.epoch != 0) enc.field_varint(4, agent.epoch);
  const auto config = enc.begin_message(5);
  agent.config.encode_body(enc);
  enc.end_message(config);
  for (const auto& report : agent.reports) {
    const auto mark = enc.begin_message(6);
    report.encode_body(enc);
    enc.end_message(mark);
  }
  for (const auto& policy : agent.policy_history) enc.field_string(7, policy);
}

bool agent_field(WireDecoder& dec, const FieldHeader& header, CheckpointAgent& out) {
  switch (header.field) {
    case 1: return assign_varint(dec, header, out.id);
    case 2: return expect_string(dec, header, out.name);
    case 3: return expect_string(dec, header, out.capabilities.emplace_back());
    case 4: return assign_varint(dec, header, out.epoch);
    case 5:
      out.config = EnbConfigReply{};
      return decode_nested(dec, header, out.config, enb_config_reply_field);
    case 6: return decode_nested(dec, header, out.reports.emplace_back(), stats_request_field);
    case 7: return expect_string(dec, header, out.policy_history.emplace_back());
    default: return dec.try_skip(header.type);
  }
}

}  // namespace

std::vector<std::uint8_t> MasterCheckpoint::encode() const {
  WireEncoder enc;
  enc.field_varint(1, version);
  if (incarnation != 0) enc.field_varint(2, incarnation);
  if (saved_at_us != 0) enc.field_varint(3, saved_at_us);
  for (const auto& agent : agents) {
    const auto mark = enc.begin_message(4);
    encode_agent(enc, agent);
    enc.end_message(mark);
  }
  // Shard identity rides as `shard + 1` so the standalone default (-1)
  // stays off the wire and old checkpoints decode to it.
  if (shard >= 0) enc.field_varint(5, static_cast<std::uint64_t>(shard) + 1);
  for (const auto id : agent_ids) enc.field_varint(6, id);
  return enc.take();
}

Result<MasterCheckpoint> MasterCheckpoint::decode(std::span<const std::uint8_t> data) {
  MasterCheckpoint out;
  bool saw_version = false;
  auto status = decode_message(
      data, out, [&saw_version](WireDecoder& dec, const FieldHeader& header,
                                MasterCheckpoint& checkpoint) {
        switch (header.field) {
          case 1:
            saw_version = true;
            return assign_varint(dec, header, checkpoint.version);
          case 2: return assign_varint(dec, header, checkpoint.incarnation);
          case 3: return assign_varint(dec, header, checkpoint.saved_at_us);
          case 4: return decode_nested(dec, header, checkpoint.agents.emplace_back(), agent_field);
          case 5: {
            std::uint64_t stamped = 0;
            if (!assign_varint(dec, header, stamped)) return false;
            if (stamped == 0) return true;
            // A stamp with no int shard index behind it is corrupt or
            // foreign; truncating it could alias a real shard and pass its
            // gate.
            if (stamped - 1 > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
              return dec.fail("checkpoint shard stamp out of range");
            }
            checkpoint.shard = static_cast<int>(stamped - 1);
            return true;
          }
          case 6: return assign_varint(dec, header, checkpoint.agent_ids.emplace_back());
          default: return dec.try_skip(header.type);
        }
      });
  if (!status.ok()) return status.error();
  if (!saw_version) return Error::decode_failure("checkpoint missing version");
  if (out.version != kVersion) {
    return Error::unsupported("checkpoint version " + std::to_string(out.version) +
                              " (expected " + std::to_string(kVersion) + ")");
  }
  return out;
}

}  // namespace flexran::proto
