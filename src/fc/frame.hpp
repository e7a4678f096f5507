// Fibre Channel FC-2 framing over the decoded-character domain.
//
// A frame on the wire is: SOF ordered set, 24-byte header, payload
// (0..2112 bytes), CRC-32, EOF ordered set. Ordered sets are four
// transmission characters led by K28.5 and are represented here in the
// decoded domain as link::Symbol sequences with the control flag standing
// in for the K flag (the FCPHY's output, which is what the injector board
// sees).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fc/enc8b10b.hpp"
#include "link/symbol.hpp"

namespace hsfi::fc {

/// Ordered-set identifiers used by this model.
enum class OrderedSet : std::uint8_t {
  kIdle,
  kRRdy,   ///< receiver ready: returns one buffer-to-buffer credit
  kSofI3,  ///< start of frame, class 3, initiate
  kSofN3,  ///< start of frame, class 3, normal
  kEofN,   ///< end of frame, normal
  kEofT,   ///< end of frame, terminate
};

/// The four decoded characters of an ordered set (K28.5 first).
[[nodiscard]] std::array<Char8, 4> ordered_set_chars(OrderedSet os) noexcept;

/// Recognizes an ordered set from four decoded characters.
[[nodiscard]] std::optional<OrderedSet> parse_ordered_set(
    std::span<const Char8, 4> chars) noexcept;

/// Ordered set as link symbols (control flag = K flag).
[[nodiscard]] std::vector<link::Symbol> ordered_set_symbols(OrderedSet os);

/// Allocation-free variant for hot transmit paths (R_RDY returns, idles).
[[nodiscard]] std::array<link::Symbol, 4> ordered_set_symbol_array(
    OrderedSet os) noexcept;

inline constexpr std::size_t kFcHeaderSize = 24;
inline constexpr std::size_t kFcMaxPayload = 2112;

/// FC-2 frame header (simplified field set, 24 bytes on the wire).
struct FcHeader {
  std::uint8_t r_ctl = 0;
  std::uint32_t d_id = 0;  ///< 24-bit destination port id
  std::uint8_t cs_ctl = 0;
  std::uint32_t s_id = 0;  ///< 24-bit source port id
  std::uint8_t type = 0;
  std::uint32_t f_ctl = 0;  ///< 24-bit
  std::uint8_t seq_id = 0;
  std::uint8_t df_ctl = 0;
  std::uint16_t seq_cnt = 0;
  std::uint16_t ox_id = 0;
  std::uint16_t rx_id = 0;
  std::uint32_t parameter = 0;

  friend bool operator==(const FcHeader&, const FcHeader&) = default;
};

struct FcFrame {
  FcHeader header{};
  std::vector<std::uint8_t> payload;
  /// Delimiters: first frame of a sequence opens with SOFi3, continuation
  /// frames with SOFn3; intermediate frames close with EOFn, the last with
  /// EOFt. The receive path records what actually arrived.
  OrderedSet sof = OrderedSet::kSofI3;
  OrderedSet eof = OrderedSet::kEofT;
};

[[nodiscard]] std::array<std::uint8_t, kFcHeaderSize> encode_header(
    const FcHeader& h) noexcept;
[[nodiscard]] std::optional<FcHeader> parse_header(
    std::span<const std::uint8_t> bytes);

/// Serializes SOF + header + payload + CRC-32 + EOF into decoded symbols.
[[nodiscard]] std::vector<link::Symbol> frame_to_symbols(const FcFrame& frame);

/// Same, but reuses `out`'s storage (its contents are replaced) — the port
/// transmit path serializes every frame into a pooled buffer instead of
/// allocating.
void frame_to_symbols_into(const FcFrame& frame,
                           std::vector<link::Symbol>& out);

enum class FcParseStatus : std::uint8_t {
  kOk,
  kTooShort,
  kCrcError,
};

struct FcParsed {
  FcParseStatus status = FcParseStatus::kTooShort;
  FcFrame frame{};
};

/// Validates CRC-32 and parses header+payload from the bytes between SOF
/// and EOF.
[[nodiscard]] FcParsed parse_frame_body(std::span<const std::uint8_t> bytes);

}  // namespace hsfi::fc
