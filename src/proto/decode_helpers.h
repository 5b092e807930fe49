// Internal to src/proto: the decode-loop helpers shared by the message and
// checkpoint decoders. Not part of the public proto API.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "proto/wire.h"
#include "util/result.h"

namespace flexran::proto::detail {

/// Iterates fields, dispatching to `handler`, which returns false for an
/// unknown field (skipped, forward-compatible).
template <typename Handler>
util::Status decode_fields(std::span<const std::uint8_t> data, Handler&& handler) {
  WireDecoder dec(data);
  while (!dec.done()) {
    auto header = dec.next_field();
    if (!header.ok()) return header.error();
    auto handled = handler(dec, *header);
    if (!handled.ok()) return handled.error();
    if (!*handled) {
      auto skipped = dec.skip(header->type);
      if (!skipped.ok()) return skipped;
    }
  }
  return {};
}

inline util::Result<std::uint64_t> expect_varint(WireDecoder& dec,
                                                 const WireDecoder::FieldHeader& header) {
  if (header.type != WireType::varint) return util::Error::decode_failure("expected varint");
  return dec.read_varint();
}

inline util::Result<std::string> expect_string(WireDecoder& dec,
                                               const WireDecoder::FieldHeader& header) {
  if (header.type != WireType::length_delimited) {
    return util::Error::decode_failure("expected bytes");
  }
  return dec.read_string();
}

inline util::Result<std::span<const std::uint8_t>> expect_bytes(
    WireDecoder& dec, const WireDecoder::FieldHeader& header) {
  if (header.type != WireType::length_delimited) {
    return util::Error::decode_failure("expected bytes");
  }
  return dec.read_bytes();
}

inline util::Result<double> expect_double(WireDecoder& dec,
                                          const WireDecoder::FieldHeader& header) {
  if (header.type != WireType::fixed64) return util::Error::decode_failure("expected fixed64");
  return dec.read_double();
}

}  // namespace flexran::proto::detail

// Sugar inside a decode_fields handler (`dec` and `header` in scope):
// assign-or-propagate for the common varint cases.
#define ASSIGN_VARINT(target, cast_type)                                    \
  do {                                                                      \
    auto v_ = ::flexran::proto::detail::expect_varint(dec, header);         \
    if (!v_.ok()) return ::flexran::util::Result<bool>(v_.error());         \
    (target) = static_cast<cast_type>(*v_);                                 \
  } while (0)

#define ASSIGN_SVARINT(target)                                              \
  do {                                                                      \
    auto v_ = ::flexran::proto::detail::expect_varint(dec, header);         \
    if (!v_.ok()) return ::flexran::util::Result<bool>(v_.error());         \
    (target) = ::flexran::proto::zigzag_decode(*v_);                        \
  } while (0)
