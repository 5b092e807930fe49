// Reference kernel behind the host-speed scaling of the timed metrics (see
// "Timing on a shared host" in ../README.md).
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "harness.h"

namespace loopbench {

namespace {

constexpr std::size_t kBufferBytes = 1 << 16;
constexpr std::size_t kTableSlots = 1 << 14;
constexpr int kRounds = 3;

// Static, so the kernel never touches the heap whose state the workload
// shapes; its time depends on the host alone.
std::array<std::uint8_t, kBufferBytes> buffer;
std::array<std::uint64_t, kTableSlots> table;
std::uint64_t sink = 0;

}  // namespace

double reference_us() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x853c49e6748fea9bULL;
  for (auto& byte : buffer) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    byte = static_cast<std::uint8_t>(x >> 56);
  }
  table.fill(0);
  std::uint64_t acc = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::size_t i = 0;
    while (i < buffer.size()) {
      // A protobuf varint, then a probe of an open-addressing table.
      std::uint64_t value = 0;
      for (int shift = 0; i < buffer.size() && shift <= 56; shift += 7) {
        const std::uint8_t byte = buffer[i++];
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) break;
      }
      const std::uint64_t key = (value + static_cast<std::uint64_t>(round)) * 0x9e3779b97f4a7c15ULL;
      std::size_t slot = (key >> 50) & (kTableSlots - 1);
      while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & (kTableSlots - 1);
      if (table[slot] == 0 && (slot & 3) != 0) table[slot] = key;
      acc += table[slot] >> 60;
    }
    std::memmove(buffer.data() + 1, buffer.data(), buffer.size() - 1);
  }
  sink += acc;
  return static_cast<double>(now_ns() - start) / 1e3;
}

double speed_factor(double reference_us) {
  return std::pow(kReferenceUs / reference_us, kSpeedExponent);
}

}  // namespace loopbench
