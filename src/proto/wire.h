// Protobuf-compatible wire primitives, written from scratch (the paper uses
// Google Protocol Buffers for FlexRAN protocol messages; signaling-overhead
// results depend on this compact encoding). Supported wire types: varint
// (0), 64-bit (1), length-delimited (2), 32-bit (5). Unknown fields are
// skippable, giving the same forward-compatibility protobuf provides.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/result.h"

namespace flexran::proto {

enum class WireType : std::uint8_t {
  varint = 0,
  fixed64 = 1,
  length_delimited = 2,
  fixed32 = 5,
};

std::uint64_t zigzag_encode(std::int64_t value);
std::int64_t zigzag_decode(std::uint64_t value);

/// Number of bytes the minimal varint encoding of `value` occupies.
std::size_t varint_size(std::uint64_t value);

class WireEncoder {
 public:
  WireEncoder() = default;

  void varint(std::uint64_t value);

  void field_varint(int field, std::uint64_t value);
  void field_svarint(int field, std::int64_t value) { field_varint(field, zigzag_encode(value)); }
  void field_bool(int field, bool value) { field_varint(field, value ? 1 : 0); }
  void field_double(int field, double value);
  void field_fixed32(int field, std::uint32_t value);
  void field_bytes(int field, std::span<const std::uint8_t> bytes);
  void field_string(int field, std::string_view text);

  // -- in-place nested messages (length-prefix backpatching) -----------------
  // Encodes a length-delimited sub-message directly into this encoder's
  // buffer, with no per-sub-message allocation or copy. begin_message writes
  // the tag plus a 1-byte length placeholder and returns a mark (the payload
  // start offset); end_message backpatches the minimal length varint. When the
  // payload turns out >= 128 bytes the tail is shifted right to widen the
  // prefix -- still within reused capacity in steady state. Output is
  // byte-identical to encoding the sub-message separately and copying it in
  // with field_bytes. Nests arbitrarily (inner end before outer).
  std::size_t begin_message(int field);
  void end_message(std::size_t mark);

  /// Drops content, keeps capacity: the clear()-and-reuse lifecycle that makes
  /// per-link scratch encoders allocation-free in steady state.
  void clear() { buffer_.clear(); }
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  std::span<const std::uint8_t> bytes() const { return buffer_.contents(); }
  std::size_t size() const { return buffer_.size(); }
  std::vector<std::uint8_t> take() { return buffer_.take(); }

 private:
  void tag(int field, WireType type);
  util::ByteBuffer buffer_;
};

class WireDecoder {
 public:
  explicit WireDecoder(std::span<const std::uint8_t> data) : data_(data) {}

  struct FieldHeader {
    int field = 0;
    WireType type = WireType::varint;
  };

  bool done() const { return pos_ >= data_.size(); }

  util::Result<FieldHeader> next_field();
  util::Result<std::uint64_t> read_varint();
  std::int64_t read_svarint_from(std::uint64_t raw) const { return zigzag_decode(raw); }
  util::Result<double> read_double();
  util::Result<std::uint32_t> read_fixed32();
  util::Result<std::span<const std::uint8_t>> read_bytes();
  util::Result<std::string> read_string();
  /// Skips the value of the field whose header was just read.
  util::Status skip(WireType type);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace flexran::proto
