// Point-to-point symbol channels.
//
// A Channel is one direction of a physical cable: it serializes symbols at
// the channel's character period and delivers them, after the propagation
// delay, as a Burst to the attached sink. Bursts (rather than one event per
// character) keep long campaigns tractable; the Myrinet slack buffer exists
// precisely to absorb the in-flight data this granularity implies (see
// DESIGN.md section 4.1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "link/symbol.hpp"
#include "link/symbol_pool.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hsfi::link {

/// A group of consecutive symbols on the wire. symbols[i] finishes arriving
/// at `start + (i + 1) * period`.
///
/// Lifetime: a Burst delivered to SymbolSink::on_burst — including its
/// `symbols` storage — is owned by the channel and valid only until
/// on_burst returns; the buffer is then recycled for later bursts. Sinks
/// that need the data longer must copy it. Under AddressSanitizer the
/// recycled storage is poisoned, so use past the lifetime faults in CI.
///
/// `symbols` is the one representation: every producer emits it, and every
/// sink scans it with one loop that takes the data runs between control
/// symbols run by run (see DESIGN.md, "Batched symbol path").
struct Burst {
  sim::SimTime start = 0;      ///< arrival time of the first symbol's leading edge
  sim::Duration period = 0;    ///< character period
  std::vector<Symbol> symbols;

  [[nodiscard]] sim::SimTime end() const noexcept {
    return start + period * static_cast<sim::Duration>(symbols.size());
  }
  /// Arrival (completion) time of symbols[i].
  [[nodiscard]] sim::SimTime arrival(std::size_t i) const noexcept {
    return start + period * static_cast<sim::Duration>(i + 1);
  }
};

/// Index of the first control symbol at or after `from`, or symbols.size()
/// when the rest of the burst is all data.
[[nodiscard]] inline std::size_t find_next_control(const Burst& burst,
                                                   std::size_t from) noexcept {
  const std::size_t n = burst.symbols.size();
  while (from < n && !burst.symbols[from].control) ++from;
  return from < n ? from : n;
}

/// Appends the data bytes of symbols [from, to) to `out` — one resize and
/// a plain copy, where a push_back per byte would recheck capacity each time.
inline void append_data(const Burst& burst, std::size_t from, std::size_t to,
                        std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + (to - from));
  const Symbol* s = burst.symbols.data();
  std::transform(s + from, s + to, out.begin() + static_cast<std::ptrdiff_t>(at),
                 [](Symbol symbol) { return symbol.data; });
}

/// Receiver interface for one channel direction.
class SymbolSink {
 public:
  virtual ~SymbolSink() = default;
  virtual void on_burst(const Burst& burst) = 0;
};

/// One direction of a cable.
class Channel {
 public:
  /// `character_period` is the serialization time of one 9-bit character
  /// (12.5 ns at 80 MB/s); `propagation_delay` models cable length
  /// (~5 ns/m of copper).
  Channel(sim::Simulator& simulator, std::string name,
          sim::Duration character_period, sim::Duration propagation_delay);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void attach(SymbolSink& sink) noexcept { sink_ = &sink; }

  /// Queues `symbols` for serialization. Transmission begins when the
  /// transmitter is free (consecutive sends are serialized back to back).
  /// Returns the time at which the last symbol finishes transmitting.
  sim::SimTime transmit(std::span<const Symbol> symbols);
  sim::SimTime transmit(Symbol symbol) { return transmit({&symbol, 1}); }

  /// Earliest time a new transmission could start.
  [[nodiscard]] sim::SimTime transmitter_free_at() const noexcept {
    return state_.tx_free_at;
  }

  [[nodiscard]] sim::Duration character_period() const noexcept {
    return character_period_;
  }
  [[nodiscard]] sim::Duration propagation_delay() const noexcept {
    return propagation_delay_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Total symbols ever accepted for transmission.
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept {
    return state_.symbols_sent;
  }

  /// Simulates pulling the cable: while disconnected, transmitted symbols
  /// vanish (and are counted). Reconnecting restores normal delivery.
  void set_connected(bool connected) noexcept { state_.connected = connected; }
  [[nodiscard]] bool connected() const noexcept { return state_.connected; }
  [[nodiscard]] std::uint64_t symbols_lost_disconnected() const noexcept {
    return state_.symbols_lost;
  }

  /// The burst-buffer freelist (observable for pooling tests/metrics).
  [[nodiscard]] const SymbolBufferPool& burst_pool() const noexcept {
    return pool_;
  }

  /// Mutable channel state for fabric snapshots. In-flight bursts live in
  /// the simulator queue (delivery lambdas own their symbol vectors by
  /// value), so the channel itself only carries the transmitter horizon and
  /// counters. The buffer pool is deliberately excluded: it only affects
  /// allocation reuse, never delivery order or timing.
  struct State {
    sim::SimTime tx_free_at = 0;
    std::uint64_t symbols_sent = 0;
    std::uint64_t symbols_lost = 0;
    bool connected = true;
  };

  [[nodiscard]] State capture_state() const noexcept { return state_; }
  void restore_state(const State& state) noexcept { state_ = state; }

 private:
  /// Fire-time half of transmit(): assembles the Burst, invokes the sink,
  /// and recycles the symbol buffer.
  void deliver(SymbolSink* sink, sim::SimTime start,
               std::vector<Symbol>&& symbols);

  sim::Simulator& simulator_;
  std::string name_;
  sim::Duration character_period_;
  sim::Duration propagation_delay_;
  State state_;
  SymbolSink* sink_ = nullptr;
  SymbolBufferPool pool_;
};

/// A full-duplex cable: two channels with shared parameters. End A transmits
/// on a_to_b and receives from b_to_a; end B the reverse.
class DuplexLink {
 public:
  DuplexLink(sim::Simulator& simulator, std::string name,
             sim::Duration character_period, sim::Duration propagation_delay)
      : a_to_b_(simulator, name + ".a>b", character_period, propagation_delay),
        b_to_a_(simulator, name + ".b>a", character_period, propagation_delay) {}

  [[nodiscard]] Channel& a_to_b() noexcept { return a_to_b_; }
  [[nodiscard]] Channel& b_to_a() noexcept { return b_to_a_; }
  [[nodiscard]] const Channel& a_to_b() const noexcept { return a_to_b_; }
  [[nodiscard]] const Channel& b_to_a() const noexcept { return b_to_a_; }

 private:
  Channel a_to_b_;
  Channel b_to_a_;
};

}  // namespace hsfi::link
