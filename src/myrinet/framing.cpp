#include "myrinet/framing.hpp"

#include <utility>

namespace hsfi::myrinet {

void Deframer::feed(link::Symbol symbol, sim::SimTime when) {
  if (!symbol.control) {
    state_.current.push_back(symbol.data);
    return;
  }
  const auto decoded = decode_control(symbol.data);
  if (!decoded) {
    ++state_.ignored;
    return;
  }
  switch (*decoded) {
    case ControlSymbol::kIdle:
      break;
    case ControlSymbol::kGap:
      if (!state_.current.empty()) {
        ++state_.frames;
        if (frame_handler_) frame_handler_(std::move(state_.current), when);
        state_.current.clear();
      }
      break;
    case ControlSymbol::kGo:
    case ControlSymbol::kStop:
      if (flow_handler_) flow_handler_(*decoded, when);
      break;
  }
}

void Deframer::feed_burst(const link::Burst& burst) {
  const std::size_t n = burst.symbols.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t c = link::find_next_control(burst, i);
    link::append_data(burst, i, c, state_.current);
    if (c == n) break;
    feed(burst.symbols[c], burst.arrival(c));
    i = c + 1;
  }
}

std::vector<link::Symbol> frame_symbols(
    std::span<const std::uint8_t> packet_bytes) {
  std::vector<link::Symbol> symbols;
  frame_symbols_into(packet_bytes, symbols);
  return symbols;
}

void frame_symbols_into(std::span<const std::uint8_t> packet_bytes,
                        std::vector<link::Symbol>& out) {
  out.clear();
  out.reserve(packet_bytes.size() + 1);
  for (const auto b : packet_bytes) out.push_back(link::data_symbol(b));
  out.push_back(to_symbol(ControlSymbol::kGap));
}

}  // namespace hsfi::myrinet
