#include "fc/frame.hpp"

#include <algorithm>

#include "fc/crc32.hpp"

namespace hsfi::fc {

namespace {

struct OsEntry {
  OrderedSet os;
  std::array<Char8, 4> chars;
};

// Representative FC-PH ordered-set spellings (second character selects the
// class/negative-disparity variant; the exact D-codes beyond K28.5 vary by
// edition — what matters to the model is that they are distinct, K-led, and
// four characters long).
const std::array<OsEntry, 6>& os_table() {
  static const std::array<OsEntry, 6> table = {{
      {OrderedSet::kIdle, {K(28, 5), D(21, 4), D(21, 5), D(21, 5)}},
      {OrderedSet::kRRdy, {K(28, 5), D(21, 4), D(10, 2), D(10, 2)}},
      {OrderedSet::kSofI3, {K(28, 5), D(21, 5), D(22, 2), D(22, 2)}},
      {OrderedSet::kSofN3, {K(28, 5), D(21, 5), D(22, 1), D(22, 1)}},
      {OrderedSet::kEofN, {K(28, 5), D(21, 4), D(21, 6), D(21, 6)}},
      {OrderedSet::kEofT, {K(28, 5), D(21, 4), D(21, 3), D(21, 3)}},
  }};
  return table;
}

}  // namespace

std::array<Char8, 4> ordered_set_chars(OrderedSet os) noexcept {
  for (const auto& e : os_table()) {
    if (e.os == os) return e.chars;
  }
  return os_table()[0].chars;
}

std::optional<OrderedSet> parse_ordered_set(
    std::span<const Char8, 4> chars) noexcept {
  for (const auto& e : os_table()) {
    if (std::equal(e.chars.begin(), e.chars.end(), chars.begin())) {
      return e.os;
    }
  }
  return std::nullopt;
}

std::vector<link::Symbol> ordered_set_symbols(OrderedSet os) {
  const auto arr = ordered_set_symbol_array(os);
  return std::vector<link::Symbol>(arr.begin(), arr.end());
}

std::array<link::Symbol, 4> ordered_set_symbol_array(OrderedSet os) noexcept {
  const auto chars = ordered_set_chars(os);
  std::array<link::Symbol, 4> out{};
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = link::Symbol{chars[i].value, chars[i].is_k};
  }
  return out;
}

std::array<std::uint8_t, kFcHeaderSize> encode_header(
    const FcHeader& h) noexcept {
  std::array<std::uint8_t, kFcHeaderSize> out{};
  std::size_t at = 0;
  // Big-endian, `bytes` wide.
  const auto put = [&out, &at](std::uint32_t v, int bytes) {
    for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
      out[at++] = static_cast<std::uint8_t>(v >> shift);
    }
  };
  put(h.r_ctl, 1);
  put(h.d_id, 3);
  put(h.cs_ctl, 1);
  put(h.s_id, 3);
  put(h.type, 1);
  put(h.f_ctl, 3);
  put(h.seq_id, 1);
  put(h.df_ctl, 1);
  put(h.seq_cnt, 2);
  put(h.ox_id, 2);
  put(h.rx_id, 2);
  put(h.parameter, 4);
  return out;
}

std::optional<FcHeader> parse_header(std::span<const std::uint8_t> b) {
  if (b.size() < kFcHeaderSize) return std::nullopt;
  const auto get24 = [&b](std::size_t i) {
    return static_cast<std::uint32_t>((b[i] << 16) | (b[i + 1] << 8) |
                                      b[i + 2]);
  };
  FcHeader h;
  h.r_ctl = b[0];
  h.d_id = get24(1);
  h.cs_ctl = b[4];
  h.s_id = get24(5);
  h.type = b[8];
  h.f_ctl = get24(9);
  h.seq_id = b[12];
  h.df_ctl = b[13];
  h.seq_cnt = static_cast<std::uint16_t>((b[14] << 8) | b[15]);
  h.ox_id = static_cast<std::uint16_t>((b[16] << 8) | b[17]);
  h.rx_id = static_cast<std::uint16_t>((b[18] << 8) | b[19]);
  h.parameter = static_cast<std::uint32_t>((b[20] << 24) | (b[21] << 16) |
                                           (b[22] << 8) | b[23]);
  return h;
}

std::vector<link::Symbol> frame_to_symbols(const FcFrame& frame) {
  std::vector<link::Symbol> out;
  frame_to_symbols_into(frame, out);
  return out;
}

void frame_to_symbols_into(const FcFrame& frame,
                           std::vector<link::Symbol>& out) {
  const auto header = encode_header(frame.header);
  Crc32 crc;
  crc.update(header);
  crc.update(frame.payload);
  const std::uint32_t fcs = crc.value();
  const std::array<std::uint8_t, 4> fcs_bytes = {
      static_cast<std::uint8_t>(fcs >> 24), static_cast<std::uint8_t>(fcs >> 16),
      static_cast<std::uint8_t>(fcs >> 8), static_cast<std::uint8_t>(fcs)};

  out.resize(4 + header.size() + frame.payload.size() + fcs_bytes.size() + 4);
  auto it = out.begin();
  const auto put_bytes = [&it](std::span<const std::uint8_t> bytes) {
    it = std::transform(bytes.begin(), bytes.end(), it, link::data_symbol);
  };
  const auto sof = ordered_set_symbol_array(frame.sof);
  it = std::copy(sof.begin(), sof.end(), it);
  put_bytes(header);
  put_bytes(frame.payload);
  put_bytes(fcs_bytes);
  const auto eof = ordered_set_symbol_array(frame.eof);
  std::copy(eof.begin(), eof.end(), it);
}

FcParsed parse_frame_body(std::span<const std::uint8_t> bytes) {
  FcParsed out;
  if (bytes.size() < kFcHeaderSize + 4) {
    out.status = FcParseStatus::kTooShort;
    return out;
  }
  const auto body = bytes.first(bytes.size() - 4);
  const std::uint32_t wire_crc = static_cast<std::uint32_t>(
      (bytes[bytes.size() - 4] << 24) | (bytes[bytes.size() - 3] << 16) |
      (bytes[bytes.size() - 2] << 8) | bytes[bytes.size() - 1]);
  if (crc32(body) != wire_crc) {
    out.status = FcParseStatus::kCrcError;
    return out;
  }
  const auto header = parse_header(body);
  if (!header) {
    out.status = FcParseStatus::kTooShort;
    return out;
  }
  out.frame.header = *header;
  out.frame.payload.assign(body.begin() + kFcHeaderSize, body.end());
  out.status = FcParseStatus::kOk;
  return out;
}

}  // namespace hsfi::fc
