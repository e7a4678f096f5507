// Myrinet slack buffer (paper Fig. 9).
//
// "Flow control is managed by a slack buffer... When it reaches the high
// water mark, the buffer generates a STOP control symbol. Correspondingly,
// it generates a GO symbol upon reaching the low water mark."
//
// While above the high watermark the STOP is refreshed periodically; the
// matching sender-side FlowGate reverts to GO when the refresh stops
// arriving (the paper's 16-character-period short timeout).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>

#include "link/symbol.hpp"
#include "myrinet/control.hpp"
#include "sim/simulator.hpp"

namespace hsfi::myrinet {

class SlackBuffer {
 public:
  struct Config {
    /// Sized for burst-granularity links: after a STOP is emitted, up to
    /// ~128 characters can still be in flight (transmit chunk + wire-ahead
    /// cap + propagation), so the high watermark leaves that much headroom.
    std::size_t capacity = 512;
    std::size_t high_watermark = 256;
    std::size_t low_watermark = 64;
    /// STOP refresh interval while stopped: the real interface interleaves
    /// its flow state continuously; the sender-side gate decays to GO 16
    /// character periods after the last STOP, so the refresh must be
    /// shorter than that. 0 disables refresh (flow-control ablation).
    sim::Duration stop_refresh = sim::nanoseconds(100);  // 8 chars @ 80 MB/s

    bool operator==(const Config&) const = default;
  };

  /// `send_flow` transmits a flow-control symbol on the reverse channel.
  SlackBuffer(sim::Simulator& simulator, Config config,
              std::function<void(ControlSymbol)> send_flow);
  ~SlackBuffer();

  SlackBuffer(const SlackBuffer&) = delete;
  SlackBuffer& operator=(const SlackBuffer&) = delete;

  /// Appends a symbol. Returns false (and counts a drop) on overflow.
  bool push(link::Symbol symbol);

  /// Bulk append: inserts as many leading symbols as capacity allows and
  /// returns how many were taken. The caller pushes the rejected tail
  /// through push() so overflow drops keep their per-symbol accounting.
  /// Without a probe the run costs one occupancy-change evaluation; with a
  /// probe attached every push is evaluated, so the probe sees each change.
  std::size_t push_run(std::span<const link::Symbol> symbols);

  /// Removes the oldest symbol, or nullopt when empty.
  std::optional<link::Symbol> pop();

  [[nodiscard]] const link::Symbol* front() const noexcept {
    return state_.queue.empty() ? nullptr : &state_.queue.front();
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return state_.queue.size();
  }
  [[nodiscard]] bool empty() const noexcept { return state_.queue.empty(); }
  [[nodiscard]] bool stopping() const noexcept { return state_.stopping; }
  [[nodiscard]] std::uint64_t overflow_drops() const noexcept {
    return state_.drops;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Probe called on every occupancy change and flow emission; drives the
  /// Fig. 9 occupancy-versus-time series.
  using Probe = std::function<void(sim::SimTime when, std::size_t occupancy,
                                   std::optional<ControlSymbol> emitted)>;
  void set_probe(Probe probe) { probe_ = std::move(probe); }

  /// Snapshot state (refresh EventId stays valid across a fabric fork —
  /// the simulator restores queue slots/generations verbatim).
  struct State {
    std::deque<link::Symbol> queue;
    bool stopping = false;
    sim::EventId refresh_event = sim::kInvalidEventId;
    std::uint64_t drops = 0;
  };

  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

 private:
  void after_occupancy_change();
  void emit(ControlSymbol c);
  void arm_refresh();

  sim::Simulator& simulator_;
  Config config_;
  std::function<void(ControlSymbol)> send_flow_;
  State state_;
  Probe probe_;
};

}  // namespace hsfi::myrinet
