// Injector control inputs (paper §3.3, Fig. 3).
//
// "The injector control inputs... allow the user to provide necessary
// information to perform the injections": match mode (on/off/once), compare
// data, compare mask, corrupt mode (toggle/replace), corrupt data, corrupt
// mask, and the inject-now strobe.
//
// The datapath is 32 bits wide (four Myrinet characters); the compare and
// corrupt vectors are aligned to the sliding 4-character window, bits
// [31:24] corresponding to the oldest character in the window. Because a
// Myrinet character carries a ninth Data/Control bit, the window has a
// 4-bit control sideband with its own compare/corrupt vectors (an explicit
// extension over the paper's 32-bit description, needed to express the
// paper's own control-symbol campaigns; see DESIGN.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hsfi::core {

enum class MatchMode : std::uint8_t {
  kOff,   ///< trigger disabled
  kOn,    ///< trigger on every match
  kOnce,  ///< trigger on the first match, ignore all subsequent ones
};

enum class CorruptMode : std::uint8_t {
  kToggle,   ///< XOR the corrupt-data bits into the stream
  kReplace,  ///< replace bits selected by the corrupt mask
};

[[nodiscard]] std::string_view to_string(MatchMode m) noexcept;
[[nodiscard]] std::string_view to_string(CorruptMode m) noexcept;
[[nodiscard]] std::optional<MatchMode> parse_match_mode(std::string_view s);
[[nodiscard]] std::optional<CorruptMode> parse_corrupt_mode(std::string_view s);

struct InjectorConfig {
  MatchMode match_mode = MatchMode::kOff;
  CorruptMode corrupt_mode = CorruptMode::kToggle;

  /// Trigger asserts when (window ^ compare_data) & compare_mask == 0 and
  /// the control sideband matches likewise. An all-zero mask matches every
  /// window (random/always injection).
  std::uint32_t compare_data = 0;
  std::uint32_t compare_mask = 0;
  std::uint8_t compare_ctl = 0;       ///< 4-bit control sideband pattern
  std::uint8_t compare_ctl_mask = 0;  ///< 4-bit sideband care bits

  std::uint32_t corrupt_data = 0;
  std::uint32_t corrupt_mask = 0;     ///< replace mode only
  std::uint8_t corrupt_ctl = 0;
  std::uint8_t corrupt_ctl_mask = 0;  ///< replace mode only

  /// Recalculate the Myrinet CRC-8 "to transmit immediately before the
  /// end-of-frame character" so that only the intended corruption survives.
  bool crc_repatch = false;

  /// Compare cadence in characters. 4 = evaluate once per 32-bit segment,
  /// exactly like the Figs. 2/3 hardware (a pattern is then caught only
  /// when it lands on the programmed lane alignment — about one in four
  /// control symbols for a single-lane match, which is what shapes the
  /// paper's Table 4 loss rates). 1 = evaluate on every character (a
  /// convenience this model adds for alignment-independent matching).
  std::uint8_t compare_stride = 1;

  /// Random-trigger mask for SEU-style campaigns ("Random faults causing
  /// bit flip errors for system availability and fault tolerance
  /// characterization under SEU conditions", §3.1). When non-zero, a
  /// 16-bit Fibonacci LFSR advances every compare cycle and the trigger
  /// additionally requires (lfsr & mask) == 0 — mask 0x000F fires on about
  /// one compare in 16, 0x00FF on one in 256, and so on. 0 disables the
  /// LFSR (every compare hit fires). Combine with an all-don't-care
  /// compare mask for uniformly random bit flips on the stream.
  std::uint16_t lfsr_mask = 0;

  bool operator==(const InjectorConfig&) const = default;
};

/// Renders a config as the serial commands that would reproduce it.
[[nodiscard]] std::string describe(const InjectorConfig& config);

}  // namespace hsfi::core
