// The fault-injector device: two transceiver-fed, independently configured
// FIFO-injector pipelines spliced into a network link (paper Fig. 1).
//
// "Two transceivers are necessary because the transmitted data must be
// intercepted on one network segment and retransmitted with the desired
// faults inserted on the opposite segment... The architecture supports
// bi-directional fault injection: where data can be corrupted in both
// 'left going' data and 'right going' data... the injector can execute
// different and independent commands on data traveling in different
// directions."
//
// Physically the device cuts a cable into a left segment and a right
// segment. Each direction's pipeline is: PHY receive -> capture/statistics
// taps -> FIFO injector (Figs. 2/3) -> optional CRC repatch -> PHY
// retransmit. Everything is transparent except a fixed pipeline latency
// (default 20 characters = 250 ns at 640 Mb/s, matching the paper's
// footnote 5).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/capture.hpp"
#include "core/crc_repatch.hpp"
#include "core/fifo_injector.hpp"
#include "core/injector_config.hpp"
#include "core/stats.hpp"
#include "link/channel.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"

namespace hsfi::core {

enum class Direction : std::uint8_t {
  kLeftToRight = 0,  ///< the paper's "right going" data
  kRightToLeft = 1,  ///< the paper's "left going" data
};

[[nodiscard]] constexpr std::size_t index(Direction d) noexcept {
  return static_cast<std::size_t>(d);
}
[[nodiscard]] std::string_view to_string(Direction d) noexcept;

class InjectorDevice {
 public:
  struct Config {
    FifoInjector::Params fifo = {};
    CaptureBuffer::Params capture = {};
    /// Character period of the attached network (drain-clock pacing).
    sim::Duration character_period = sim::picoseconds(12'500);

    bool operator==(const Config&) const = default;
  };

  InjectorDevice(sim::Simulator& simulator, std::string name, Config config);
  ~InjectorDevice();

  InjectorDevice(const InjectorDevice&) = delete;
  InjectorDevice& operator=(const InjectorDevice&) = delete;

  /// Splice into the left cable segment: `rx` carries symbols from the left
  /// neighbor into the device, `tx` from the device back to it.
  void attach_left(link::Channel& rx, link::Channel& tx);
  /// Same for the right segment.
  void attach_right(link::Channel& rx, link::Channel& tx);

  /// Live (re)configuration of one direction — what the serial command
  /// plane ultimately writes. Re-arms a kOnce trigger.
  void apply(Direction d, const InjectorConfig& config);
  [[nodiscard]] const InjectorConfig& config(Direction d) const;

  /// Force one injection on the next window (the "Inject now" strobe).
  void inject_now(Direction d);
  /// Re-arm a kOnce trigger without touching the rest of the config.
  void rearm(Direction d);

  [[nodiscard]] const FifoInjector::Stats& fifo_stats(Direction d) const;
  [[nodiscard]] const CaptureBuffer& capture(Direction d) const;
  [[nodiscard]] const StreamStats& stream_stats(Direction d) const;
  [[nodiscard]] std::uint64_t frames_crc_patched(Direction d) const;
  void clear_stats();

  /// Latency a character experiences through the device.
  [[nodiscard]] sim::Duration nominal_latency() const noexcept {
    return config_.character_period *
           static_cast<sim::Duration>(config_.fifo.latency_chars);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Optional event trace (configuration applications); not owned.
  void set_trace(sim::TraceLog* trace) noexcept { trace_ = trace; }

  /// Called once per fired injection window with the direction and the
  /// simulated time of the first corrupted character — the anchor the
  /// manifestation analyzer correlates downstream effects against.
  using InjectionHook = std::function<void(Direction, sim::SimTime)>;
  void set_injection_hook(InjectionHook hook);

  /// The device's mutable state, one entry per direction, held as one
  /// member that each direction's pipeline works on. FIFO, repatch,
  /// capture and stream monitor are plain value types copied whole. The
  /// drain EventId stays valid across a fork because the simulator
  /// restores queue slots/generations verbatim. The injection hook and the
  /// egress wiring are per-run wiring, not state.
  struct State {
    struct PipeState {
      FifoInjector fifo;
      CrcRepatcher repatch;
      CaptureBuffer capture;
      StreamStats stats;
      sim::EventId drain_event = sim::kInvalidEventId;
    };
    std::array<PipeState, 2> pipes;
  };

  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

 private:
  struct Pipeline;

  sim::Simulator& simulator_;
  std::string name_;
  Config config_;
  State state_;
  std::array<std::unique_ptr<Pipeline>, 2> pipes_;
  sim::TraceLog* trace_ = nullptr;
};

}  // namespace hsfi::core
