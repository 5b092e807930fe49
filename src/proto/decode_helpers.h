// Internal to src/proto: the decode-loop helpers shared by the message and
// checkpoint decoders. Not part of the public proto API.
//
// Every decoder is a field handler, `bool(WireDecoder&, const FieldHeader&,
// T& out)`, that consumes one field's value into `out` -- skipping unknown
// fields with `dec.try_skip(header.type)` for forward compatibility -- and
// returns false on malformed input, with the reason recorded in the decoder.
// Nested sub-messages run their handler over a sub-decoder and hand its
// reason up. Only decode_message(), at the message boundary, turns a
// failure into a util::Error: one per failed message, none per field.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "proto/messages.h"
#include "proto/wire.h"
#include "util/result.h"

namespace flexran::proto::detail {

using FieldHeader = WireDecoder::FieldHeader;

/// Feeds every field left in `dec` to `handler` until the buffer ends or a
/// handler fails.
template <typename T, typename Handler>
bool decode_fields(WireDecoder& dec, T& out, Handler&& handler) {
  FieldHeader header;
  while (!dec.done()) {
    if (!dec.try_field(header) || !handler(dec, header, out)) return false;
  }
  return true;
}

inline bool expect_varint(WireDecoder& dec, const FieldHeader& header, std::uint64_t& out) {
  if (header.type != WireType::varint) return dec.fail("expected varint");
  return dec.try_varint(out);
}

inline bool expect_bytes(WireDecoder& dec, const FieldHeader& header,
                         std::span<const std::uint8_t>& out) {
  if (header.type != WireType::length_delimited) return dec.fail("expected bytes");
  return dec.try_bytes(out);
}

/// Assigns over `out`, reusing its capacity.
inline bool expect_string(WireDecoder& dec, const FieldHeader& header, std::string& out) {
  std::span<const std::uint8_t> bytes;
  if (!expect_bytes(dec, header, bytes)) return false;
  out.assign(bytes.begin(), bytes.end());
  return true;
}

inline bool expect_double(WireDecoder& dec, const FieldHeader& header, double& out) {
  if (header.type != WireType::fixed64) return dec.fail("expected fixed64");
  return dec.try_double(out);
}

/// A varint field narrowed to the target's own type (integer, bool or enum).
template <typename T>
bool assign_varint(WireDecoder& dec, const FieldHeader& header, T& target) {
  std::uint64_t value = 0;
  if (!expect_varint(dec, header, value)) return false;
  target = static_cast<T>(value);
  return true;
}

/// A zigzag-encoded signed varint field.
template <typename T>
bool assign_svarint(WireDecoder& dec, const FieldHeader& header, T& target) {
  std::uint64_t value = 0;
  if (!expect_varint(dec, header, value)) return false;
  target = static_cast<T>(zigzag_decode(value));
  return true;
}

/// Decodes the current length-delimited field as a sub-message into `out`.
/// A failure inside it becomes `dec`'s failure, reason and all.
template <typename T, typename Handler>
bool decode_nested(WireDecoder& dec, const FieldHeader& header, T& out, Handler&& handler) {
  std::span<const std::uint8_t> bytes;
  if (!expect_bytes(dec, header, bytes)) return false;
  WireDecoder sub(bytes);
  return decode_fields(sub, out, handler) || dec.fail(sub.failure());
}

/// The message boundary: decodes all of `data` into `out` (as is -- callers
/// that reuse `out` reset it first) and builds the error a failure costs.
template <typename T, typename Handler>
util::Status decode_message(std::span<const std::uint8_t> data, T& out, Handler&& handler) {
  WireDecoder dec(data);
  if (!decode_fields(dec, out, handler)) return dec.error();
  return {};
}

/// decode_message into a fresh value.
template <typename T, typename Handler>
util::Result<T> decode_message(std::span<const std::uint8_t> data, Handler&& handler) {
  T out;
  auto status = decode_message(data, out, handler);
  if (!status.ok()) return status.error();
  return out;
}

// Field handlers of messages nested in checkpoints (defined in messages.cpp).
bool enb_config_reply_field(WireDecoder& dec, const FieldHeader& header, EnbConfigReply& out);
bool stats_request_field(WireDecoder& dec, const FieldHeader& header, StatsRequest& out);

}  // namespace flexran::proto::detail
