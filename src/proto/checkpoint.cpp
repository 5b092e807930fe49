#include "proto/checkpoint.h"

#include "proto/codec.h"

namespace flexran::proto {

namespace detail {

template <>
struct Schema<CheckpointAgent> {
  using Rows = Table<Field<1, &CheckpointAgent::id, Varint>,
                     Field<2, &CheckpointAgent::name, Bytes>,
                     Field<3, &CheckpointAgent::capabilities, Repeated<Bytes>>,
                     Field<4, &CheckpointAgent::epoch, Varint, kOmitDefault>,
                     Field<5, &CheckpointAgent::config, Message>,
                     Field<6, &CheckpointAgent::reports, Repeated<Message>>,
                     Field<7, &CheckpointAgent::policy_history, Repeated<Bytes>>>;
};

template <>
struct Schema<MasterCheckpoint> {
  using Rows = Table<Field<1, &MasterCheckpoint::version, Varint, Emit::required>,
                     Field<2, &MasterCheckpoint::incarnation, Varint, kOmitDefault>,
                     Field<3, &MasterCheckpoint::saved_at_us, Varint, kOmitDefault>,
                     Field<4, &MasterCheckpoint::agents, Repeated<Message>>,
                     Field<5, &MasterCheckpoint::shard, ShardStamp, kOmitDefault>,
                     Field<6, &MasterCheckpoint::agent_ids, Repeated<Varint>>>;
  static constexpr const char* kMissing = "checkpoint missing version";
};

}  // namespace detail

std::vector<std::uint8_t> MasterCheckpoint::encode() const {
  WireEncoder enc;
  detail::encode_fields(enc, *this);
  return enc.take();
}

util::Status MasterCheckpoint::decode_into(std::span<const std::uint8_t> data,
                                           MasterCheckpoint& out) {
  auto status = detail::decode_into(data, out);
  if (!status.ok()) return status;
  if (out.version != kVersion) {
    return util::Error::unsupported("checkpoint version " + std::to_string(out.version) +
                                    " (expected " + std::to_string(kVersion) + ")");
  }
  return {};
}

util::Result<MasterCheckpoint> MasterCheckpoint::decode(std::span<const std::uint8_t> data) {
  MasterCheckpoint out;
  auto status = decode_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

}  // namespace flexran::proto
