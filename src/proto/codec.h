// Internal to src/proto: the schema-driven codec and the message tables.
// Not part of the public proto API.
//
// Every message is one table, `Schema<M>::Rows`, with one row per field:
//
//   Field<number, &M::member, Kind, Emit>
//
// The row names the field number, the member, the wire kind (how the member
// travels) and the omission rule. One generic encoder (encode_fields) and
// one generic decoder (read_message) walk the tables. The member pointer is
// a template argument, so every row compiles to straight-line code with no
// indirect call. Table order is emit order.
//
// Decoding resets the struct to its defaults, keeping vector and string
// capacity, then reads the fields; a fresh decode and a warm decode_into
// are that one path. Repeated fields decode over the elements a previous
// decode left and are trimmed to the decoded count at the end, so a
// same-shape message decodes without touching the allocator. Unknown fields
// are skipped (forward compatibility). Primitives return false with a
// static reason recorded in the WireDecoder (wire.h); decode_into turns a
// failure into one util::Error per failed message, none per field.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "proto/messages.h"
#include "proto/wire.h"
#include "util/member.h"
#include "util/result.h"

namespace flexran::proto::detail {

using FieldHeader = WireDecoder::FieldHeader;

using util::StructOf;
using util::TypeOf;

/// The member's value in a default-constructed struct.
template <auto P>
inline constexpr TypeOf<P> kDefaultOf = StructOf<P>{}.*P;

/// Omission rule of a row.
enum class Emit {
  always,
  /// Left off the wire while the member holds its default. Every such
  /// default encodes to 0 (varint kinds) or to nothing (bytes), so the rule
  /// tests the encoded value.
  unless_default,
  /// Always written; a decode without it fails with Schema<M>::kMissing.
  required,
};

template <typename... Rows>
struct Table {};

/// A message's table: `using Rows = Table<Field<...>, ...>;` plus, when a
/// row is Emit::required, `static constexpr const char* kMissing`.
template <typename M>
struct Schema;

template <typename M>
concept HasSchema = requires { typename Schema<M>::Rows; };

template <typename M>
void encode_fields(WireEncoder& enc, const M& in);
template <typename M>
bool read_message(WireDecoder& dec, M& out);

// ------------------------------------------------------------------- kinds
// A kind says how one value travels: its wire type, how it is written under
// a field number, how it is read back, and (for Emit::unless_default) when
// it counts as absent.

/// Kinds carried as one varint. Derived supplies wire(value) -> uint64 and
/// store(dec, uint64, value&) -> bool.
template <typename Derived>
struct OnVarint {
  static constexpr WireType kWire = WireType::varint;
  static constexpr const char* kExpected = "expected varint";
  template <typename T>
  static void write(WireEncoder& enc, int field, const T& value) {
    enc.field_varint(field, Derived::wire(value));
  }
  template <typename T>
  static bool read(WireDecoder& dec, T& value) {
    std::uint64_t raw = 0;
    return dec.try_varint(raw) && Derived::store(dec, raw, value);
  }
  template <typename T>
  static bool absent(const T& value) {
    return Derived::wire(value) == 0;
  }
};

/// Unsigned integers, enums and bools, as their value (narrowed to the
/// member's type on decode).
struct Varint : OnVarint<Varint> {
  template <typename T>
  static std::uint64_t wire(T value) {
    return static_cast<std::uint64_t>(value);
  }
  template <typename T>
  static bool store(WireDecoder&, std::uint64_t raw, T& value) {
    value = static_cast<T>(raw);
    return true;
  }
};

/// Signed integers, zigzag-encoded.
struct Svarint : OnVarint<Svarint> {
  template <typename T>
  static std::uint64_t wire(T value) {
    return zigzag_encode(value);
  }
  template <typename T>
  static bool store(WireDecoder&, std::uint64_t raw, T& value) {
    value = static_cast<T>(zigzag_decode(raw));
    return true;
  }
};

/// A dBm value as signed centi-dBm. llround (not truncation), so decode ->
/// re-encode is a fixed point.
struct CentiDbm : OnVarint<CentiDbm> {
  static std::uint64_t wire(double dbm) { return zigzag_encode(std::llround(dbm * 100.0)); }
  static bool store(WireDecoder&, std::uint64_t raw, double& dbm) {
    dbm = static_cast<double>(zigzag_decode(raw)) / 100.0;
    return true;
  }
};

/// One 64-PRB word of an RB bitmap: 100 PRBs travel as word 0 and word 1.
template <int Word>
struct RbWord : OnVarint<RbWord<Word>> {
  static std::uint64_t wire(const lte::RbAllocation& rbs) { return rbs.word(Word); }
  static bool store(WireDecoder&, std::uint64_t raw, lte::RbAllocation& rbs) {
    // Keeps the other word; an empty bitmap (before the first word) has
    // nothing to keep.
    const std::uint64_t other = rbs.empty() ? 0 : rbs.word(1 - Word);
    rbs = Word == 0 ? lte::RbAllocation::from_words(raw, other)
                    : lte::RbAllocation::from_words(other, raw);
    return true;
  }
};

/// An ABS pattern as its subframe bits.
struct AbsBits : OnVarint<AbsBits> {
  static std::uint64_t wire(const lte::AbsPattern& pattern) { return pattern.to_bits(); }
  static bool store(WireDecoder&, std::uint64_t raw, lte::AbsPattern& pattern) {
    pattern = lte::AbsPattern::from_bits(raw);
    return true;
  }
};

/// A shard index stamped as `shard + 1`, so the standalone default (-1)
/// stays off the wire and a checkpoint without the field decodes to it. A
/// zero stamp leaves the member as it is.
struct ShardStamp : OnVarint<ShardStamp> {
  static std::uint64_t wire(int shard) {
    return shard >= 0 ? static_cast<std::uint64_t>(shard) + 1 : 0;
  }
  static bool store(WireDecoder& dec, std::uint64_t stamp, int& shard) {
    if (stamp == 0) return true;
    // A stamp with no int shard index behind it is corrupt or foreign;
    // truncating it could alias a real shard and pass its gate.
    if (stamp - 1 > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      return dec.fail("checkpoint shard stamp out of range");
    }
    shard = static_cast<int>(stamp - 1);
    return true;
  }
};

/// A double as fixed64.
struct Fixed64 {
  static constexpr WireType kWire = WireType::fixed64;
  static constexpr const char* kExpected = "expected fixed64";
  static void write(WireEncoder& enc, int field, double value) { enc.field_double(field, value); }
  static bool read(WireDecoder& dec, double& value) { return dec.try_double(value); }
};

/// Text (std::string) or a byte vector, length-delimited; assigned over
/// the member's capacity on decode.
struct Bytes {
  static constexpr WireType kWire = WireType::length_delimited;
  static constexpr const char* kExpected = "expected bytes";
  static void write(WireEncoder& enc, int field, const std::string& text) {
    enc.field_string(field, text);
  }
  static void write(WireEncoder& enc, int field, std::span<const std::uint8_t> bytes) {
    enc.field_bytes(field, bytes);
  }
  template <typename C>
  static bool read(WireDecoder& dec, C& value) {
    std::span<const std::uint8_t> bytes;
    if (!dec.try_bytes(bytes)) return false;
    value.assign(bytes.begin(), bytes.end());
    return true;
  }
  template <typename C>
  static bool absent(const C& value) {
    return value.empty();
  }
};

/// A nested message with its own table, written in place
/// (begin_message/end_message: no sub-encoder, no copy). A failure inside
/// it becomes the parent's failure, reason and all.
struct Message {
  static constexpr WireType kWire = WireType::length_delimited;
  static constexpr const char* kExpected = "expected bytes";
  template <typename M>
  static void write(WireEncoder& enc, int field, const M& message) {
    const std::size_t mark = enc.begin_message(field);
    encode_fields(enc, message);
    enc.end_message(mark);
  }
  template <typename M>
  static bool read(WireDecoder& dec, M& message) {
    std::span<const std::uint8_t> bytes;
    if (!dec.try_bytes(bytes)) return false;
    WireDecoder sub(bytes);
    return read_message(sub, message) || dec.fail(sub.failure());
  }
};

/// A repeated field (std::vector member): one wire entry per element, in
/// order. Decoding reuses the elements a previous decode left in place and
/// trims the vector to the decoded count at the end.
template <typename Kind>
struct Repeated {
  static constexpr bool kSlotted = true;
  static constexpr WireType kWire = Kind::kWire;
  static constexpr const char* kExpected = Kind::kExpected;
  template <typename E>
  static void write(WireEncoder& enc, int field, const std::vector<E>& values) {
    for (const auto& value : values) Kind::write(enc, field, value);
  }
  /// Nothing to do: finish() trims, so the elements stay for reuse.
  template <typename E>
  static void reset(std::vector<E>&) {}
  template <typename E>
  static bool read_slot(WireDecoder& dec, std::vector<E>& values, std::uint32_t index) {
    if (index == values.size()) values.emplace_back();
    return Kind::read(dec, values[index]);
  }
  template <typename E>
  static void finish(std::vector<E>& values, std::uint32_t count) {
    values.resize(count);
  }
};

/// The fixed per-LC-group BSR array: one varint entry per slot. Entries
/// past the last slot are dropped and counted as a bsr_overflow anomaly --
/// a peer with more LC groups than we model keeps its session, and the loss
/// stays visible.
struct BsrSlots {
  static constexpr bool kSlotted = true;
  static constexpr WireType kWire = WireType::varint;
  static constexpr const char* kExpected = "expected varint";
  template <std::size_t N>
  static void write(WireEncoder& enc, int field, const std::array<std::uint32_t, N>& slots) {
    for (const auto bytes : slots) enc.field_varint(field, bytes);
  }
  template <std::size_t N>
  static bool read_slot(WireDecoder& dec, std::array<std::uint32_t, N>& slots,
                        std::uint32_t index) {
    std::uint64_t raw = 0;
    if (!dec.try_varint(raw)) return false;
    if (index < N) {
      slots[index] = static_cast<std::uint32_t>(raw);
    } else {
      decode_anomalies().bsr_overflow.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  template <typename T>
  static void finish(T&, std::uint32_t) {}
};

template <typename Kind>
concept Slotted = Kind::kSlotted;

// -------------------------------------------------------------------- rows

template <int N, auto P, typename Kind, Emit E = Emit::always>
struct Field {
  static_assert(N >= 1 && static_cast<std::uint64_t>(N) <= kMaxFieldNumber);
  using Struct = StructOf<P>;
  using Type = TypeOf<P>;
  static constexpr int kNumber = N;
  static constexpr Emit kEmit = E;
  static constexpr auto kMember = P;

  /// Writes `value` as this row's field, under the omission rule.
  static void put(WireEncoder& enc, const Type& value) {
    if constexpr (E == Emit::unless_default) {
      if (Kind::absent(value)) return;
    }
    Kind::write(enc, N, value);
  }
  static void encode(WireEncoder& enc, const Struct& in) { put(enc, in.*P); }

  /// Back to the default, keeping capacity.
  static void reset(Struct& out) {
    auto& value = out.*P;
    if constexpr (requires { Kind::reset(value); }) {
      Kind::reset(value);
    } else if constexpr (HasSchema<Type>) {
      WireDecoder none({});
      (void)read_message(none, value);
    } else if constexpr (requires { value.clear(); }) {
      value.clear();
    } else {
      value = kDefaultOf<P>;
    }
  }

  /// Reads one occurrence of the field. `count` is the slot index of a
  /// slotted kind; a required row counts its occurrences in it.
  static bool read_value(WireDecoder& dec, const FieldHeader& header, Type& value,
                         std::uint32_t& count) {
    if (header.type != Kind::kWire) return dec.fail(Kind::kExpected);
    if constexpr (Slotted<Kind>) {
      return Kind::read_slot(dec, value, count++);
    } else {
      if constexpr (E == Emit::required) ++count;
      return Kind::read(dec, value);
    }
  }
  static bool read(WireDecoder& dec, const FieldHeader& header, Struct& out,
                   std::uint32_t& count) {
    return read_value(dec, header, out.*P, count);
  }

  static void finish(Struct& out, std::uint32_t count) {
    if constexpr (Slotted<Kind>) Kind::finish(out.*P, count);
  }
};

// ---------------------------------------------------------- generic codec

template <std::size_t From, std::size_t To, typename M, typename... R, std::size_t... I>
void encode_rows(WireEncoder& enc, const M& in, Table<R...>, std::index_sequence<I...>) {
  ((I >= From && I < To ? R::encode(enc, in) : void()), ...);
}

inline constexpr std::size_t kTableEnd = std::numeric_limits<std::size_t>::max();

/// Encodes the rows of M's table at positions [From, To), in table order.
template <std::size_t From, std::size_t To, typename M>
void encode_range(WireEncoder& enc, const M& in) {
  [&]<typename... R>(Table<R...> rows) {
    encode_rows<From, To>(enc, in, rows, std::index_sequence_for<R...>{});
  }(typename Schema<M>::Rows{});
}

template <typename M>
void encode_fields(WireEncoder& enc, const M& in) {
  encode_range<0, kTableEnd>(enc, in);
}

template <std::size_t I, typename... R>
using RowAt = std::tuple_element_t<I, std::tuple<R...>>;

/// Position of the row numbered N, or sizeof...(R) when no row is.
template <int N, typename... R>
constexpr std::size_t row_numbered() {
  std::size_t index = 0;
  (void)((R::kNumber == N || (++index, false)) || ...);
  return index;
}

/// Hands a field numbered N to its row, or skips it when no row has N.
template <int N, typename M, typename Counts, typename... R>
bool read_numbered(WireDecoder& dec, const FieldHeader& header, M& out, Counts& counts,
                   Table<R...>) {
  static_assert((0 + ... + (R::kNumber == N)) <= 1, "a field number appears twice");
  constexpr std::size_t kRow = row_numbered<N, R...>();
  if constexpr (kRow < sizeof...(R)) {
    return RowAt<kRow, R...>::read(dec, header, out, counts[kRow]);
  } else {
    return dec.try_skip(header.type);
  }
}

/// Field numbers the dispatch switch in read_rows covers.
inline constexpr int kMaxTableNumber = 16;

template <typename M, typename... R, std::size_t... I>
bool read_rows(WireDecoder& dec, M& out, Table<R...>, std::index_sequence<I...>) {
  static_assert(((R::kNumber <= kMaxTableNumber) && ...), "widen the switch in read_rows");
  (R::reset(out), ...);
  std::array<std::uint32_t, sizeof...(R)> counts{};
  FieldHeader header;
  while (!dec.done()) {
    if (!dec.try_field(header)) return false;
    // A switch over the field number compiles to one jump; each case is
    // resolved to its row (or to a skip) at compile time.
    constexpr Table<R...> rows;
    bool ok = false;
    switch (header.field) {
      case 1: ok = read_numbered<1>(dec, header, out, counts, rows); break;
      case 2: ok = read_numbered<2>(dec, header, out, counts, rows); break;
      case 3: ok = read_numbered<3>(dec, header, out, counts, rows); break;
      case 4: ok = read_numbered<4>(dec, header, out, counts, rows); break;
      case 5: ok = read_numbered<5>(dec, header, out, counts, rows); break;
      case 6: ok = read_numbered<6>(dec, header, out, counts, rows); break;
      case 7: ok = read_numbered<7>(dec, header, out, counts, rows); break;
      case 8: ok = read_numbered<8>(dec, header, out, counts, rows); break;
      case 9: ok = read_numbered<9>(dec, header, out, counts, rows); break;
      case 10: ok = read_numbered<10>(dec, header, out, counts, rows); break;
      case 11: ok = read_numbered<11>(dec, header, out, counts, rows); break;
      case 12: ok = read_numbered<12>(dec, header, out, counts, rows); break;
      case 13: ok = read_numbered<13>(dec, header, out, counts, rows); break;
      case 14: ok = read_numbered<14>(dec, header, out, counts, rows); break;
      case 15: ok = read_numbered<15>(dec, header, out, counts, rows); break;
      case 16: ok = read_numbered<16>(dec, header, out, counts, rows); break;
      default: ok = dec.try_skip(header.type); break;
    }
    if (!ok) return false;
  }
  (R::finish(out, counts[I]), ...);
  if constexpr (((R::kEmit == Emit::required) || ...)) {
    if (((R::kEmit == Emit::required && counts[I] == 0) || ...)) {
      return dec.fail(Schema<M>::kMissing);
    }
  }
  return true;
}

template <typename M, typename... R>
bool read_table(WireDecoder& dec, M& out, Table<R...> rows) {
  return read_rows(dec, out, rows, std::index_sequence_for<R...>{});
}

/// Resets `out` and decodes the rest of `dec` into it. Kept out of line:
/// one function per message type decodes faster than one body with every
/// nested message inlined into it.
template <typename M>
[[gnu::noinline]] bool read_message(WireDecoder& dec, M& out) {
  return read_table(dec, out, typename Schema<M>::Rows{});
}

/// The message boundary: one error per failed decode.
template <typename M>
util::Status decode_into(std::span<const std::uint8_t> data, M& out) {
  WireDecoder dec(data);
  if (!read_message(dec, out)) return dec.error();
  return {};
}

template <typename M>
util::Result<M> decode_fresh(std::span<const std::uint8_t> data) {
  M out;
  auto status = decode_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

/// The row of member P in its struct's table.
template <auto P, typename R, typename... Rest>
constexpr auto row_for(Table<R, Rest...>) {
  if constexpr (std::is_same_v<std::remove_const_t<decltype(R::kMember)>, decltype(P)>) {
    if constexpr (R::kMember == P) return std::type_identity<R>{};
    else return row_for<P>(Table<Rest...>{});
  } else {
    return row_for<P>(Table<Rest...>{});
  }
}
template <auto P>
using RowFor = typename decltype(row_for<P>(typename Schema<StructOf<P>>::Rows{}))::type;

/// Position of member P's row in its struct's table.
template <auto P>
constexpr std::size_t row_index() {
  return []<typename... R>(Table<R...>) {
    constexpr bool is_row[] = {std::is_same_v<R, RowFor<P>>...};
    std::size_t index = 0;
    while (!is_row[index]) ++index;
    return index;
  }(typename Schema<StructOf<P>>::Rows{});
}

/// Reads member P's field alone from an encoded message, through P's row:
/// its first occurrence, or the member's default when the field is absent.
/// False when the bytes before it (or the value itself) are malformed.
template <auto P>
bool peek(std::span<const std::uint8_t> data, TypeOf<P>& out) {
  using Row = RowFor<P>;
  out = kDefaultOf<P>;
  WireDecoder dec(data);
  FieldHeader header;
  std::uint32_t count = 0;
  while (!dec.done()) {
    if (!dec.try_field(header)) return false;
    if (header.field == Row::kNumber) return Row::read_value(dec, header, out, count);
    if (!dec.try_skip(header.type)) return false;
  }
  return true;
}

// ------------------------------------------------------------------ tables
// The wire schema of every message (docs/PROTOCOL.md describes the same
// fields). MasterCheckpoint's tables are in checkpoint.cpp.

constexpr Emit kOmitDefault = Emit::unless_default;

template <>
struct Schema<Envelope> {
  using Rows = Table<Field<1, &Envelope::version, Varint>,
                     Field<2, &Envelope::type, Varint, Emit::required>,
                     Field<3, &Envelope::xid, Varint, kOmitDefault>,
                     Field<4, &Envelope::body, Bytes>,
                     Field<5, &Envelope::epoch, Varint, kOmitDefault>,
                     Field<6, &Envelope::queue_status, Varint, kOmitDefault>,
                     Field<7, &Envelope::throttle_hint, Varint, kOmitDefault>,
                     Field<8, &Envelope::ts_us, Varint, kOmitDefault>,
                     Field<9, &Envelope::ts_echo_us, Varint, kOmitDefault>,
                     Field<10, &Envelope::master_epoch, Varint, kOmitDefault>,
                     Field<11, &Envelope::retry_after_ms, Varint, kOmitDefault>>;
  static constexpr const char* kMissing = "envelope missing type";
};

template <>
struct Schema<Hello> {
  using Rows = Table<Field<1, &Hello::enb_id, Varint>,
                     Field<2, &Hello::name, Bytes>,
                     Field<3, &Hello::n_cells, Varint>,
                     Field<4, &Hello::capabilities, Repeated<Bytes>>,
                     Field<5, &Hello::epoch, Varint, kOmitDefault>>;
};

template <>
struct Schema<EchoRequest> {
  using Rows = Table<Field<1, &EchoRequest::subframe, Svarint>,
                     Field<2, &EchoRequest::timestamp_us, Svarint>>;
};

template <>
struct Schema<EchoReply> {
  using Rows = Table<Field<1, &EchoReply::subframe, Svarint>,
                     Field<2, &EchoReply::echoed_timestamp_us, Svarint>>;
};

template <>
struct Schema<CellConfigMsg> {
  using Rows = Table<Field<1, &CellConfigMsg::cell_id, Varint>,
                     Field<2, &CellConfigMsg::bandwidth_mhz, Fixed64>,
                     Field<3, &CellConfigMsg::duplex, Varint>,
                     Field<4, &CellConfigMsg::tx_mode, Varint>,
                     Field<5, &CellConfigMsg::antenna_ports, Varint>,
                     Field<6, &CellConfigMsg::band, Varint>,
                     Field<7, &CellConfigMsg::pci, Varint>>;
};

template <>
struct Schema<EnbConfigReply> {
  using Rows = Table<Field<1, &EnbConfigReply::enb_id, Varint>,
                     Field<2, &EnbConfigReply::cells, Repeated<Message>>>;
};

template <>
struct Schema<UeConfigMsg> {
  using Rows = Table<Field<1, &UeConfigMsg::rnti, Varint>,
                     Field<2, &UeConfigMsg::primary_cell, Varint>,
                     Field<3, &UeConfigMsg::tx_mode, Varint>,
                     Field<4, &UeConfigMsg::ue_category, Varint>,
                     Field<5, &UeConfigMsg::carrier_aggregation, Varint>>;
};

template <>
struct Schema<UeConfigReply> {
  using Rows = Table<Field<1, &UeConfigReply::ues, Repeated<Message>>>;
};

template <>
struct Schema<LcConfigMsg> {
  using Rows = Table<Field<1, &LcConfigMsg::rnti, Varint>,
                     Field<2, &LcConfigMsg::lcid, Varint>,
                     Field<3, &LcConfigMsg::lc_group, Varint>>;
};

template <>
struct Schema<LcConfigReply> {
  using Rows = Table<Field<1, &LcConfigReply::channels, Repeated<Message>>>;
};

template <>
struct Schema<StatsRequest> {
  using Rows = Table<Field<1, &StatsRequest::request_id, Varint>,
                     Field<2, &StatsRequest::mode, Varint>,
                     Field<3, &StatsRequest::periodicity_ttis, Varint>,
                     Field<4, &StatsRequest::flags, Varint>,
                     Field<5, &StatsRequest::ues, Repeated<Varint>>>;
};

template <>
struct Schema<RsrpMeasurement> {
  using Rows = Table<Field<1, &RsrpMeasurement::cell_id, Varint>,
                     Field<2, &RsrpMeasurement::rsrp_dbm, CentiDbm>>;
};

template <>
struct Schema<UeStatsReport> {
  using Rows = Table<Field<1, &UeStatsReport::rnti, Varint>,
                     Field<2, &UeStatsReport::bsr_bytes, BsrSlots>,
                     Field<3, &UeStatsReport::phr_db, Svarint>,
                     Field<4, &UeStatsReport::wb_cqi, Varint>,
                     Field<5, &UeStatsReport::rlc_queue_bytes, Varint>,
                     Field<6, &UeStatsReport::pending_harq, Varint, kOmitDefault>,
                     Field<7, &UeStatsReport::dl_bytes_delivered, Varint, kOmitDefault>,
                     Field<8, &UeStatsReport::ul_bytes_received, Varint, kOmitDefault>,
                     Field<9, &UeStatsReport::wb_cqi_protected, Varint, kOmitDefault>,
                     Field<11, &UeStatsReport::ul_buffer_bytes, Varint, kOmitDefault>,
                     Field<10, &UeStatsReport::rsrp, Repeated<Message>>>;
};

template <>
struct Schema<CellStatsReport> {
  using Rows = Table<Field<1, &CellStatsReport::cell_id, Varint>,
                     Field<2, &CellStatsReport::noise_interference_dbm, Fixed64>,
                     Field<3, &CellStatsReport::dl_prbs_in_use, Varint>,
                     Field<4, &CellStatsReport::ul_prbs_in_use, Varint>,
                     Field<5, &CellStatsReport::active_ues, Varint>>;
};

template <>
struct Schema<StatsReply> {
  using Rows = Table<Field<1, &StatsReply::request_id, Varint>,
                     Field<2, &StatsReply::subframe, Svarint>,
                     Field<3, &StatsReply::ue_reports, Repeated<Message>>,
                     Field<4, &StatsReply::cell_reports, Repeated<Message>>>;
};

template <>
struct Schema<lte::DlDci> {
  using Rows = Table<Field<1, &lte::DlDci::rnti, Varint>,
                     Field<2, &lte::DlDci::rbs, RbWord<0>>,
                     Field<3, &lte::DlDci::rbs, RbWord<1>, kOmitDefault>,
                     Field<4, &lte::DlDci::mcs, Varint>,
                     Field<5, &lte::DlDci::harq_pid, Varint>,
                     Field<6, &lte::DlDci::new_data, Varint>,
                     Field<7, &lte::DlDci::carrier, Varint, kOmitDefault>>;
};

template <>
struct Schema<lte::UlDci> {
  using Rows = Table<Field<1, &lte::UlDci::rnti, Varint>,
                     Field<2, &lte::UlDci::rbs, RbWord<0>>,
                     Field<3, &lte::UlDci::rbs, RbWord<1>, kOmitDefault>,
                     Field<4, &lte::UlDci::mcs, Varint>>;
};

template <>
struct Schema<DlMacConfig> {
  using Rows = Table<Field<1, &DlMacConfig::cell_id, Varint>,
                     Field<2, &DlMacConfig::target_subframe, Svarint>,
                     Field<3, &DlMacConfig::dcis, Repeated<Message>>>;
};

template <>
struct Schema<UlMacConfig> {
  using Rows = Table<Field<1, &UlMacConfig::cell_id, Varint>,
                     Field<2, &UlMacConfig::target_subframe, Svarint>,
                     Field<3, &UlMacConfig::dcis, Repeated<Message>>>;
};

template <>
struct Schema<HandoverCommand> {
  using Rows = Table<Field<1, &HandoverCommand::rnti, Varint>,
                     Field<2, &HandoverCommand::source_cell, Varint>,
                     Field<3, &HandoverCommand::target_cell, Varint>>;
};

template <>
struct Schema<AbsConfig> {
  using Rows = Table<Field<1, &AbsConfig::cell_id, Varint>,
                     Field<2, &AbsConfig::pattern, AbsBits>,
                     Field<3, &AbsConfig::mute_during_abs, Varint>>;
};

template <>
struct Schema<CarrierRestriction> {
  using Rows = Table<Field<1, &CarrierRestriction::cell_id, Varint>,
                     Field<2, &CarrierRestriction::max_dl_prbs, Varint>>;
};

template <>
struct Schema<DrxConfig> {
  using Rows = Table<Field<1, &DrxConfig::rnti, Varint>,
                     Field<2, &DrxConfig::cycle_ttis, Varint>,
                     Field<3, &DrxConfig::on_duration_ttis, Varint>>;
};

template <>
struct Schema<ScellCommand> {
  using Rows = Table<Field<1, &ScellCommand::rnti, Varint>,
                     Field<2, &ScellCommand::activate, Varint>>;
};

template <>
struct Schema<EventNotification> {
  using Rows = Table<Field<1, &EventNotification::event, Varint>,
                     Field<2, &EventNotification::subframe, Svarint>,
                     Field<3, &EventNotification::rnti, Varint, kOmitDefault>,
                     Field<4, &EventNotification::cell_id, Varint, kOmitDefault>,
                     Field<5, &EventNotification::xid, Varint, kOmitDefault>,
                     Field<6, &EventNotification::module, Bytes, kOmitDefault>,
                     Field<7, &EventNotification::vsf, Bytes, kOmitDefault>,
                     Field<8, &EventNotification::implementation, Bytes, kOmitDefault>,
                     Field<9, &EventNotification::failure_kind, Varint, kOmitDefault>,
                     Field<10, &EventNotification::failure_count, Varint, kOmitDefault>,
                     Field<11, &EventNotification::detail, Bytes, kOmitDefault>,
                     Field<12, &EventNotification::overload_state, Varint, kOmitDefault>>;
};

template <>
struct Schema<EventSubscription> {
  using Rows = Table<Field<1, &EventSubscription::events, Repeated<Varint>>,
                     Field<2, &EventSubscription::enable, Varint>>;
};

template <>
struct Schema<ControlDelegation> {
  using Rows = Table<Field<1, &ControlDelegation::module, Bytes>,
                     Field<2, &ControlDelegation::vsf, Bytes>,
                     Field<3, &ControlDelegation::implementation, Bytes>,
                     Field<4, &ControlDelegation::version, Varint>,
                     Field<5, &ControlDelegation::blob, Bytes, kOmitDefault>>;
};

template <>
struct Schema<PolicyReconfiguration> {
  using Rows = Table<Field<1, &PolicyReconfiguration::yaml, Bytes>>;
};

}  // namespace flexran::proto::detail
