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

Result<CheckpointAgent> decode_agent(std::span<const std::uint8_t> data) {
  CheckpointAgent out;
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: ASSIGN_VARINT(out.id, std::uint32_t); return true;
      case 2: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        out.name = std::move(*s);
        return true;
      }
      case 3: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        out.capabilities.push_back(std::move(*s));
        return true;
      }
      case 4: ASSIGN_VARINT(out.epoch, std::uint32_t); return true;
      case 5: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto config = EnbConfigReply::decode_body(*bytes);
        if (!config.ok()) return Result<bool>(config.error());
        out.config = std::move(*config);
        return true;
      }
      case 6: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto report = StatsRequest::decode_body(*bytes);
        if (!report.ok()) return Result<bool>(report.error());
        out.reports.push_back(std::move(*report));
        return true;
      }
      case 7: {
        auto s = expect_string(dec, header);
        if (!s.ok()) return Result<bool>(s.error());
        out.policy_history.push_back(std::move(*s));
        return true;
      }
      default: return false;
    }
  });
  if (!status.ok()) return status.error();
  return out;
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
  auto status = decode_fields(data, [&](WireDecoder& dec,
                                        const WireDecoder::FieldHeader& header) -> Result<bool> {
    switch (header.field) {
      case 1: {
        ASSIGN_VARINT(out.version, std::uint32_t);
        saw_version = true;
        return true;
      }
      case 2: ASSIGN_VARINT(out.incarnation, std::uint32_t); return true;
      case 3: ASSIGN_VARINT(out.saved_at_us, std::uint64_t); return true;
      case 4: {
        auto bytes = expect_bytes(dec, header);
        if (!bytes.ok()) return Result<bool>(bytes.error());
        auto agent = decode_agent(*bytes);
        if (!agent.ok()) return Result<bool>(agent.error());
        out.agents.push_back(std::move(*agent));
        return true;
      }
      case 5: {
        std::uint64_t stamped = 0;
        ASSIGN_VARINT(stamped, std::uint64_t);
        if (stamped == 0) return true;
        // A stamp with no int shard index behind it is corrupt or foreign;
        // truncating it could alias a real shard and pass its gate.
        if (stamped - 1 > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
          return Result<bool>(Error::decode_failure("checkpoint shard stamp out of range"));
        }
        out.shard = static_cast<int>(stamped - 1);
        return true;
      }
      case 6: {
        std::uint32_t id = 0;
        ASSIGN_VARINT(id, std::uint32_t);
        out.agent_ids.push_back(id);
        return true;
      }
      default: return false;
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
