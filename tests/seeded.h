// Deterministic building blocks for the seeded mutation tests: a
// splitmix64 sequence and an FNV-1a digest. Both are fixed and
// platform-independent, so a pinned digest only moves when behavior does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace flexran::seeded {

/// splitmix64: a fixed, platform-independent sequence for a given seed.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over a sequence of values and length-prefixed byte strings.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  void add(std::span<const std::uint8_t> bytes) {
    add(bytes.size());
    for (const auto b : bytes) byte(b);
  }
  void add(std::string_view text) {
    add(text.size());
    for (const char c : text) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ull; }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace flexran::seeded
