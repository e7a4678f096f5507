// Sender-side flow-control state (paper §4.3.1, "Corruption of GO and STOP
// symbols").
//
// "The timeout counter is set to 16 character periods... If a symbol is
// received, the counter is reset. If the counter times out, the sender
// transitions itself to the GO stage. Thus, if the sender has been placed in
// the STOP state because it received an erroneous STOP symbol, it will
// recover fairly quickly by acting as if it received a GO symbol."
//
// A FlowGate tracks whether this end of a channel may transmit. STOP pauses
// it and (re)arms the short timeout; GO resumes it. A receiver holds a
// sender off by refreshing STOP (the real interface interleaves its flow
// state continuously; SlackBuffer models that with a periodic STOP refresh
// while above the low watermark), and the gate re-opens on its own 16
// character periods after the last STOP — the paper's erroneous-STOP
// recovery ("it will recover fairly quickly by acting as if it received a
// GO symbol").
#pragma once

#include <cstdint>
#include <functional>

#include "myrinet/control.hpp"
#include "sim/simulator.hpp"

namespace hsfi::myrinet {

class FlowGate {
 public:
  /// `short_timeout` is 16 character periods (200 ns at 80 MB/s).
  /// `on_resume` is invoked whenever the gate transitions closed -> open
  /// (by GO or by timeout), so transmit pumps can restart.
  FlowGate(sim::Simulator& simulator, sim::Duration short_timeout,
           std::function<void()> on_resume);
  ~FlowGate();

  FlowGate(const FlowGate&) = delete;
  FlowGate& operator=(const FlowGate&) = delete;

  /// Feed a decoded flow-control symbol received on the reverse channel.
  void on_flow(ControlSymbol c);

  [[nodiscard]] bool open() const noexcept { return state_.open; }

  [[nodiscard]] std::uint64_t stops_received() const noexcept {
    return state_.stops;
  }
  [[nodiscard]] std::uint64_t gos_received() const noexcept {
    return state_.gos;
  }
  [[nodiscard]] std::uint64_t timeout_resumes() const noexcept {
    return state_.timeout_resumes;
  }

  /// Snapshot state. The timeout EventId stays valid across a fabric fork
  /// because the simulator restores queue slots and generations verbatim.
  struct State {
    bool open = true;
    sim::EventId timeout_event = sim::kInvalidEventId;
    std::uint64_t stops = 0;
    std::uint64_t gos = 0;
    std::uint64_t timeout_resumes = 0;
  };

  [[nodiscard]] State capture_state() const noexcept { return state_; }
  void restore_state(const State& state) noexcept { state_ = state; }

 private:
  void arm_timeout();
  void disarm_timeout();
  void resume(bool by_timeout);

  sim::Simulator& simulator_;
  sim::Duration short_timeout_;
  std::function<void()> on_resume_;
  State state_;
};

}  // namespace hsfi::myrinet
