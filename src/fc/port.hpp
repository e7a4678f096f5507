// An FC N_Port pair endpoint with buffer-to-buffer credit flow control.
//
// Transmit: frames queue and are serialized only while BB_Credit > 0; each
// frame consumes one credit, and each R_RDY ordered set received returns
// one (FC-PH class-3 flow control).
//
// Receive: the decoded-character stream is scanned for ordered sets (K28.5
// leads a four-character set); SOF opens a frame body, EOF closes it, the
// CRC-32 is checked, and the frame is buffered. When the host drains a
// buffer, an R_RDY is returned to the sender.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "fc/frame.hpp"
#include "link/channel.hpp"
#include "link/symbol_pool.hpp"
#include "sim/simulator.hpp"

namespace hsfi::fc {

class FcPort final : public link::SymbolSink {
 public:
  struct Config {
    std::uint32_t port_id = 0;  ///< 24-bit N_Port identifier
    /// Credits we hold toward the peer (peer's advertised buffer count).
    std::size_t bb_credit = 4;
    /// Our receive buffers (what we advertise to the peer).
    std::size_t rx_buffers = 4;
    /// 1.0625 Gb/s => one 10-bit character every ~9.4 ns.
    sim::Duration character_period = sim::picoseconds(9'412);
    sim::Duration rx_processing_time = sim::microseconds(5);
    /// Credit-recovery timeout (the model's stand-in for FC-PH link timeout
    /// plus credit recovery): a transmit stall that sees no R_RDY for this
    /// long means credits were lost to corruption — class 3 never returns
    /// them — so the port resets its count to bb_credit and carries on.
    /// 0 disables (a corrupted R_RDY then wedges the link permanently).
    sim::Duration credit_recovery_timeout = sim::milliseconds(1);
    std::size_t tx_queue_frames = 64;
    std::size_t chunk_symbols = 64;
    std::size_t max_tx_ahead_chars = 128;
  };

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t crc_errors = 0;
    std::uint64_t rrdy_sent = 0;
    std::uint64_t rrdy_received = 0;
    std::uint64_t credit_stall_events = 0;
    std::uint64_t credit_recoveries = 0;  ///< stalls broken by the timeout
    std::uint64_t rx_overflows = 0;
    std::uint64_t malformed_sets = 0;   ///< K28.5 set that parsed to nothing
    std::uint64_t stray_data = 0;       ///< data characters outside a frame
    std::uint64_t tx_queue_drops = 0;
  };

  // Receive and credit failures are observed on the simulator (where =
  // the port's name): kFcCrcError, kFcMalformedSet, kFcRxOverflow,
  // kFcCreditStall and kFcStrayData.

  FcPort(sim::Simulator& simulator, std::string name, Config config);

  FcPort(const FcPort&) = delete;
  FcPort& operator=(const FcPort&) = delete;

  void attach(link::Channel& rx, link::Channel& tx);

  /// Queues a frame. Returns false when the send queue is full.
  bool send(FcFrame frame);

  /// Scenario hook: transmits `count` R_RDY ordered sets no freed buffer
  /// backs — lying flow control. Each one hands the peer a BB credit it
  /// should not have, letting it overrun our advertised receive buffers.
  /// Bypasses the transmit queue (ordered sets interleave with frames on a
  /// real link) and leaves rrdy_sent untouched: stats record honest
  /// protocol behavior, the injected lies are accounted by the scenario
  /// driver as injections.
  void inject_rrdy(std::size_t count);

  using FrameHandler = std::function<void(FcFrame frame, sim::SimTime when)>;
  void on_frame(FrameHandler handler) { handler_ = std::move(handler); }

  void clear_stats() noexcept { state_.stats = Stats{}; }

  /// Campaign reset to the fresh-construction state: statistics, BB
  /// credits, transmit queue, and any half-parsed receive state (the link
  /// is assumed drained — a corrupted R_RDY earlier may have leaked peer
  /// credits, which this restores, the "known good state" contract).
  void reset_for_campaign();

  [[nodiscard]] const Stats& stats() const noexcept { return state_.stats; }
  [[nodiscard]] std::size_t credits() const noexcept { return state_.credits; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Snapshot state: credit count, transmit cursor, half-parsed receive
  /// state, and counters. EventIds stay valid across a fabric fork (the
  /// simulator restores queue slots/generations verbatim); the frame
  /// handler is per-run wiring and stays attached.
  struct State {
    // Transmit.
    std::deque<std::vector<link::Symbol>> tx_queue;
    std::vector<link::Symbol> tx_current;
    std::size_t tx_offset = 0;
    std::size_t credits = 0;
    bool tx_pump_scheduled = false;
    bool stalled_reported = false;
    sim::EventId credit_recovery_event = sim::kInvalidEventId;
    // Receive.
    std::vector<Char8> set_accum;  ///< partial ordered set (K28.5-led)
    bool in_frame = false;
    OrderedSet sof_seen = OrderedSet::kSofI3;
    std::vector<std::uint8_t> body;
    std::deque<FcFrame> rx_buffers;
    bool rx_drain_scheduled = false;
    Stats stats;
  };

  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

  // link::SymbolSink
  void on_burst(const link::Burst& burst) override;

 private:
  void pump_tx();
  void schedule_pump_tx();
  void feed(link::Symbol s, sim::SimTime when);
  void handle_ordered_set(OrderedSet os, sim::SimTime when);
  void complete_frame(OrderedSet eof, sim::SimTime when);
  void schedule_credit_recovery();
  void cancel_credit_recovery();
  void schedule_rx_drain();
  void emit_event(sim::Observed kind, sim::SimTime when) {
    simulator_.observe(when, kind, name_);
  }

  sim::Simulator& simulator_;
  std::string name_;
  Config config_;
  link::Channel* tx_ = nullptr;
  FrameHandler handler_;

  // Frame serializations go through a buffer pool: a completed frame's
  // symbol vector is parked and its capacity reused by the next send()
  // instead of reallocating per frame. Outside State (pure capacity cache,
  // no protocol state).
  link::SymbolBufferPool tx_pool_;
  State state_;
};

}  // namespace hsfi::fc
