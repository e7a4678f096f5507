// IEEE CRC-32 (polynomial 0x04C11DB7, reflected, init/xorout 0xFFFFFFFF),
// the FC-2 frame CRC mandated by FC-PH [ANS94].
//
// Spans are folded eight bytes per step with the slicing-by-8 tables
// (Kounavis and Berry): table k maps a byte to its CRC contribution k
// bytes ahead of the register, so eight independent lookups replace
// eight dependent ones. The byte-at-a-time table (table 0) finishes the
// tail and stays the definition the sliced path is tested against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace hsfi::fc {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Four bytes as a little-endian word, assembled by shifts (no type
/// punning, so it stays constexpr and alignment-free).
constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

class Crc32 {
 public:
  constexpr void update(std::uint8_t byte) noexcept {
    state_ = detail::kCrc32Tables[0][(state_ ^ byte) & 0xFF] ^ (state_ >> 8);
  }
  constexpr void update(std::span<const std::uint8_t> bytes) noexcept {
    const auto& t = detail::kCrc32Tables;
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = state_ ^ detail::load_le32(p);
      const std::uint32_t hi = detail::load_le32(p + 4);
      state_ = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
               t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
               t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
               t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) update(*p);
  }
  [[nodiscard]] constexpr std::uint32_t value() const noexcept {
    return state_ ^ 0xFFFFFFFFu;
  }
  constexpr void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] constexpr std::uint32_t crc32(
    std::span<const std::uint8_t> bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

}  // namespace hsfi::fc
