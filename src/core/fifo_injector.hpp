// The FIFO injector: the FPGA datapath entity that holds the network stream,
// matches patterns, and corrupts data in place (paper §3.3, Figs. 2 and 3).
//
// Two-phase operation, one character per clock pair:
//   odd clock  — the incoming character is pushed onto the FIFO (dual-port
//                RAM), the character that has aged past the pipeline depth
//                is popped for retransmission, and the newcomer is shifted
//                into the 32-bit compare window;
//   even clock — the compare result is evaluated; on a trigger (or a forced
//                inject-now) the matched window — the four newest characters,
//                all still resident in the FIFO — is overwritten with the
//                corrupted value.
//
// clock() models one odd/even pair. Passing nullopt models a clock pair in
// which the wire carries no character (idle): the free-running FPGA clock
// keeps popping residual FIFO contents so a packet tail never sticks in the
// device.
//
// clock_burst() runs the same pipeline across a whole burst in one call.
// When the configuration makes a trigger impossible in the window (not
// armed, all-don't-care compare, LFSR off) it degenerates to bulk ring
// copies plus arithmetic on the stats counters; otherwise it runs the
// per-character loop inlined on the ring. Either way it is step-for-step
// equivalent to calling clock() per character (pinned by a property test).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/injector_config.hpp"
#include "link/symbol.hpp"

namespace hsfi::core {

/// True for the IDLE control character the free-running clock synthesizes.
[[nodiscard]] constexpr bool is_idle_character(link::Symbol s) noexcept {
  return s.control && s.data == 0x00;
}

class FifoInjector {
 public:
  struct Params {
    /// Characters a symbol spends inside the device: the paper's VHDL
    /// "pipelines the inject operation for three clock cycles but keeps a
    /// few more 32-bit segments in the FIFO" — about five 32-bit words at
    /// 640 Mb/s gives the footnote's ~250 ns. We default to the equivalent
    /// 20 characters. Must be >= 4 so the whole compare window is still
    /// rewritable on the even clock.
    std::size_t latency_chars = 20;
    /// Dual-port RAM capacity in characters (fidelity bound only).
    std::size_t fifo_capacity = 64;

    bool operator==(const Params&) const = default;
  };

  struct Stats {
    std::uint64_t characters = 0;   ///< characters pushed through
    std::uint64_t matches = 0;      ///< compare hits (trigger asserted or not)
    std::uint64_t injections = 0;   ///< windows actually corrupted
    std::uint64_t forced = 0;       ///< inject-now strobes honored
  };

  struct Result {
    std::optional<link::Symbol> out;  ///< character leaving the device
    bool matched = false;
    bool injected = false;
  };

  /// Output of clock_burst(): every character that left the device during
  /// the burst, in pop order, plus the input indices whose even clock fired
  /// an injection (so callers can replay capture triggers and observations
  /// at the exact per-symbol arrival timestamps).
  struct BatchResult {
    std::vector<link::Symbol> out;
    std::vector<std::uint32_t> fires;
  };

  FifoInjector();
  explicit FifoInjector(Params params);

  /// Runtime-reconfigurable control inputs (the RS-232 path writes these).
  [[nodiscard]] InjectorConfig& config() noexcept { return config_; }
  [[nodiscard]] const InjectorConfig& config() const noexcept { return config_; }

  /// Re-arms a kOnce trigger and clears the inject-now strobe.
  void rearm() noexcept;

  /// Requests corruption of the next window regardless of compare result
  /// ("When the inject now signal is asserted, the current injection
  /// configuration is exercised on one 32-bit segment during the next even
  /// clock cycle").
  void inject_now() noexcept { inject_now_ = true; }

  /// One odd+even clock pair. `in` is the arriving character, or nullopt on
  /// an idle wire.
  Result clock(std::optional<link::Symbol> in);

  /// Runs the odd/even pipeline across every character of `in` (a burst is
  /// back-to-back wire characters, so no idle pairs occur inside it).
  /// Clears and refills `result`. Equivalent to clock() per character.
  void clock_burst(std::span<const link::Symbol> in, BatchResult& result);

  [[nodiscard]] std::size_t occupancy() const noexcept { return count_; }

  /// True while the FIFO still holds non-IDLE characters; the device keeps
  /// the drain clock running until this clears.
  [[nodiscard]] bool pending_payload() const noexcept;
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void clear_stats() noexcept { stats_ = Stats{}; }

  /// The current 32-bit compare window ([31:24] = oldest character) and its
  /// 4-bit control sideband (bit 3 = oldest) — exposed for tests and traces.
  [[nodiscard]] std::uint32_t window_data() const noexcept { return window_data_; }
  [[nodiscard]] std::uint8_t window_ctl() const noexcept { return window_ctl_; }

 private:
  [[nodiscard]] bool compare_matches() const noexcept;
  void corrupt_window();

  /// Advances the random-trigger LFSR one step; true when it permits a
  /// fire under the current lfsr_mask.
  [[nodiscard]] bool lfsr_permits() noexcept;

  struct EvenResult {
    bool matched = false;
    bool fired = false;
  };
  /// Even-clock evaluation for a real character. Call only on compare
  /// cycles (the stride gate is the caller's job).
  EvenResult even_clock();

  // --- Fixed-capacity ring (replaces the old std::deque FIFO). ----------
  // head_ indexes the oldest resident character; logical slot i lives at
  // ring_[wrap(head_ + i)]. The storage never reallocates after
  // construction, so occupancy churn is allocation-free, and the plain
  // vector keeps the injector copyable for snapshot State capture.
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= ring_.size() ? i - ring_.size() : i;
  }
  [[nodiscard]] link::Symbol& ring_at(std::size_t i) noexcept {
    return ring_[wrap(head_ + i)];
  }
  [[nodiscard]] const link::Symbol& ring_at(std::size_t i) const noexcept {
    return ring_[wrap(head_ + i)];
  }
  void push_ring(link::Symbol s) noexcept {
    // Unreachable through clock()/clock_burst(): the constructor enforces
    // fifo_capacity > latency_chars and the pop side keeps occupancy at
    // latency_chars, so a push never meets a full ring. The assertion
    // guards the invariant; release builds mirror the hardware (and the
    // old deque path) by dropping the newcomer.
    assert(count_ < ring_.size() && "FIFO capacity overflow");
    if (count_ == ring_.size()) return;
    ring_[wrap(head_ + count_)] = s;
    ++count_;
  }
  [[nodiscard]] link::Symbol pop_ring() noexcept {
    link::Symbol s = ring_[head_];
    head_ = wrap(head_ + 1);
    --count_;
    return s;
  }

  Params params_;
  InjectorConfig config_;
  std::uint16_t lfsr_ = 0xACE1;  ///< never zero; taps 16,14,13,11
  std::vector<link::Symbol> ring_;  ///< fixed fifo_capacity slots
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  // Compare registers power up holding IDLE control characters (data 0x00,
  // D/C = control), like a wire that has been idle.
  std::uint32_t window_data_ = 0;
  std::uint8_t window_ctl_ = 0x0F;
  bool once_done_ = false;
  bool inject_now_ = false;
  Stats stats_;
};

}  // namespace hsfi::core
