#include "proto/wire.h"

#include <cstring>

namespace flexran::proto {

void WireEncoder::varint(std::uint64_t value) {
  while (value >= 0x80) {
    buffer_.write_u8(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  buffer_.write_u8(static_cast<std::uint8_t>(value));
}

std::size_t varint_size(std::uint64_t value) {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

void WireEncoder::tag(int field, WireType type) {
  varint(static_cast<std::uint64_t>(field) << 3 | static_cast<std::uint64_t>(type));
}

std::size_t WireEncoder::begin_message(int field) {
  tag(field, WireType::length_delimited);
  buffer_.write_u8(0);  // length placeholder, backpatched by end_message
  return buffer_.size();
}

void WireEncoder::end_message(std::size_t mark) {
  const std::size_t length = buffer_.size() - mark;
  const std::size_t prefix_bytes = varint_size(length);
  if (prefix_bytes > 1) {
    // The 1-byte placeholder is too narrow: open a gap right after it and
    // let the payload slide right. The format stays minimal-varint, so the
    // bytes match what a fresh sub-encoder + field_bytes would have produced.
    buffer_.insert_zeros(mark, prefix_bytes - 1);
  }
  std::uint8_t* prefix = buffer_.mutable_data() + (mark - 1);
  std::uint64_t value = length;
  while (value >= 0x80) {
    *prefix++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *prefix = static_cast<std::uint8_t>(value);
}

void WireEncoder::field_varint(int field, std::uint64_t value) {
  tag(field, WireType::varint);
  varint(value);
}

void WireEncoder::field_double(int field, double value) {
  tag(field, WireType::fixed64);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  buffer_.write_u64(bits);
}

void WireEncoder::field_fixed32(int field, std::uint32_t value) {
  tag(field, WireType::fixed32);
  buffer_.write_u32(value);
}

void WireEncoder::field_bytes(int field, std::span<const std::uint8_t> bytes) {
  tag(field, WireType::length_delimited);
  varint(bytes.size());
  buffer_.write_bytes(bytes);
}

void WireEncoder::field_string(int field, std::string_view text) {
  tag(field, WireType::length_delimited);
  varint(text.size());
  buffer_.write_string(text);
}

}  // namespace flexran::proto
