// Symbol-stream framing (paper Fig. 8).
//
// "Packets are separated by a GAP control symbol, which tells the Myrinet
// interface that the previous packet was a packet tail... There can be any
// positive number of GAP packets between data packets. However, GAP packets
// are not allowed to appear within packets."
//
// The Deframer turns a symbol stream back into frames: data symbols
// accumulate into the current frame; a GAP terminates a (non-empty) frame;
// IDLE and undecodable control codes are transparent; GO/STOP are flow
// control and reported to a separate handler, not framed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "link/channel.hpp"
#include "link/symbol.hpp"
#include "myrinet/control.hpp"
#include "sim/time.hpp"

namespace hsfi::myrinet {

class Deframer {
 public:
  /// Called with the frame's bytes and the arrival time of its closing GAP.
  using FrameHandler =
      std::function<void(std::vector<std::uint8_t> frame, sim::SimTime when)>;
  /// Called for flow-control symbols (GO/STOP) as they arrive.
  using FlowHandler = std::function<void(ControlSymbol c, sim::SimTime when)>;

  void on_frame(FrameHandler handler) { frame_handler_ = std::move(handler); }
  void on_flow(FlowHandler handler) { flow_handler_ = std::move(handler); }

  /// Feeds one received symbol with its arrival time.
  void feed(link::Symbol symbol, sim::SimTime when);

  /// Feeds a whole burst: data runs between control symbols are appended
  /// to the open frame, and control symbols go through feed() with their
  /// exact arrival times. Equivalent to feeding every symbol individually.
  void feed_burst(const link::Burst& burst);

  /// Bytes accumulated in the (unterminated) current frame.
  [[nodiscard]] std::size_t open_frame_size() const noexcept {
    return state_.current.size();
  }

  /// Discards the current partial frame (used when an interface resets).
  void abort_frame() { state_.current.clear(); }

  // Counters for monitoring and tests.
  [[nodiscard]] std::uint64_t frames_emitted() const noexcept {
    return state_.frames;
  }
  [[nodiscard]] std::uint64_t ignored_control_codes() const noexcept {
    return state_.ignored;
  }

  /// Data-only snapshot state for fabric forks: the partial frame and the
  /// counters. Handlers are wiring, not state — they stay attached across
  /// restore (they bind the owning entity, which outlives the snapshot).
  struct State {
    std::vector<std::uint8_t> current;
    std::uint64_t frames = 0;
    std::uint64_t ignored = 0;
  };

  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

 private:
  State state_;
  FrameHandler frame_handler_;
  FlowHandler flow_handler_;
};

/// Serializes a packet's bytes plus its terminating GAP into symbols.
[[nodiscard]] std::vector<link::Symbol> frame_symbols(
    std::span<const std::uint8_t> packet_bytes);

/// Same, but reuses `out`'s storage (cleared first) — the NIC transmit
/// path frames every outgoing packet into one recycled buffer instead of
/// allocating per frame.
void frame_symbols_into(std::span<const std::uint8_t> packet_bytes,
                        std::vector<link::Symbol>& out);

}  // namespace hsfi::myrinet
