// Protobuf-compatible wire primitives, written from scratch (the paper uses
// Google Protocol Buffers for FlexRAN protocol messages; signaling-overhead
// results depend on this compact encoding). Supported wire types: varint
// (0), 64-bit (1), length-delimited (2), 32-bit (5). Unknown fields are
// skippable, giving the same forward-compatibility protobuf provides.
#pragma once

#include <cstdint>
#include <cstring>
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

/// Largest field number protobuf allows (2^29 - 1); larger tags are invalid.
inline constexpr std::uint64_t kMaxFieldNumber = (std::uint64_t{1} << 29) - 1;

inline std::uint64_t zigzag_encode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^ static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^ -static_cast<std::int64_t>(value & 1);
}

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

  // -- decode core -----------------------------------------------------------
  // Each primitive returns false on malformed input and records a static
  // reason (failure()); nothing here allocates or builds a util::Error. The
  // message boundary turns the reason into one error() -- see
  // codec.h and docs/wire_fastpath.md.
  bool try_field(FieldHeader& out);
  bool try_varint(std::uint64_t& out);
  bool try_double(double& out);
  bool try_fixed32(std::uint32_t& out);
  bool try_bytes(std::span<const std::uint8_t>& out);
  /// Skips the value of the field whose header was just read.
  bool try_skip(WireType type);

  /// Records `reason` (a string literal) as this decode's failure.
  bool fail(const char* reason) {
    failure_ = reason;
    return false;
  }
  const char* failure() const { return failure_; }
  util::Error error() const { return util::Error::decode_failure(failure_); }

  // -- util::Result wrappers over the core, for callers that read a field or
  // two by hand (ingest peeks, benches, tests).
  util::Result<FieldHeader> next_field();
  util::Result<std::uint64_t> read_varint();
  util::Result<double> read_double();
  util::Result<std::uint32_t> read_fixed32();
  util::Result<std::span<const std::uint8_t>> read_bytes();
  util::Result<std::string> read_string();
  util::Status skip(WireType type);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  const char* failure_ = "";
};

inline bool WireDecoder::try_varint(std::uint64_t& out) {
  if (pos_ < data_.size() && data_[pos_] < 0x80) {  // one-byte fast path
    out = data_[pos_++];
    return true;
  }
  std::uint64_t value = 0;
  for (int shift = 0; pos_ < data_.size(); shift += 7) {
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64) return fail("varint too long");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      out = value;
      return true;
    }
  }
  return fail("varint past end");
}

inline bool WireDecoder::try_field(FieldHeader& out) {
  std::uint64_t raw = 0;
  if (!try_varint(raw)) return false;
  const auto type_bits = static_cast<std::uint8_t>(raw & 0x7);
  if (type_bits != 0 && type_bits != 1 && type_bits != 2 && type_bits != 5) {
    return fail("unsupported wire type");
  }
  // Range-check before narrowing: field 2^32 + 3 must not alias field 3.
  const std::uint64_t field = raw >> 3;
  if (field == 0 || field > kMaxFieldNumber) return fail("invalid field number");
  out.field = static_cast<int>(field);
  out.type = static_cast<WireType>(type_bits);
  return true;
}

inline bool WireDecoder::try_double(double& out) {
  if (data_.size() - pos_ < 8) return fail("fixed64 past end");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  std::memcpy(&out, &bits, sizeof(out));
  return true;
}

inline bool WireDecoder::try_fixed32(std::uint32_t& out) {
  if (data_.size() - pos_ < 4) return fail("fixed32 past end");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  out = value;
  return true;
}

inline bool WireDecoder::try_bytes(std::span<const std::uint8_t>& out) {
  std::uint64_t length = 0;
  if (!try_varint(length)) return false;
  if (data_.size() - pos_ < length) return fail("bytes past end");
  out = data_.subspan(pos_, length);
  pos_ += length;
  return true;
}

inline bool WireDecoder::try_skip(WireType type) {
  switch (type) {
    case WireType::varint: {
      std::uint64_t value = 0;
      return try_varint(value);
    }
    case WireType::fixed64: {
      double value = 0;
      return try_double(value);
    }
    case WireType::fixed32: {
      std::uint32_t value = 0;
      return try_fixed32(value);
    }
    case WireType::length_delimited: {
      std::span<const std::uint8_t> value;
      return try_bytes(value);
    }
  }
  return fail("unknown wire type");
}

// The util::Result wrappers: the same core, one error built on failure.

inline util::Result<WireDecoder::FieldHeader> WireDecoder::next_field() {
  FieldHeader header;
  if (!try_field(header)) return error();
  return header;
}

inline util::Result<std::uint64_t> WireDecoder::read_varint() {
  std::uint64_t value = 0;
  if (!try_varint(value)) return error();
  return value;
}

inline util::Result<double> WireDecoder::read_double() {
  double value = 0;
  if (!try_double(value)) return error();
  return value;
}

inline util::Result<std::uint32_t> WireDecoder::read_fixed32() {
  std::uint32_t value = 0;
  if (!try_fixed32(value)) return error();
  return value;
}

inline util::Result<std::span<const std::uint8_t>> WireDecoder::read_bytes() {
  std::span<const std::uint8_t> bytes;
  if (!try_bytes(bytes)) return error();
  return bytes;
}

inline util::Result<std::string> WireDecoder::read_string() {
  std::span<const std::uint8_t> bytes;
  if (!try_bytes(bytes)) return error();
  return std::string(bytes.begin(), bytes.end());
}

inline util::Status WireDecoder::skip(WireType type) {
  if (!try_skip(type)) return error();
  return {};
}

}  // namespace flexran::proto
