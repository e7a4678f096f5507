// Myrinet crossbar switch: cut-through (wormhole) forwarding with source
// routing, slack-buffer flow control, syndrome-preserving CRC rewrite, and
// the two recovery timeouts the paper's campaign exercises.
//
// Routing (paper §4.1): "At each switch, the first byte of the header
// designates the outgoing port. Once the packet is routed, the byte used by
// the current switch is stripped off... After each byte is removed, the
// trailing CRC-8 is recomputed."
//
// Blocking (paper §4.3.1): "a Myrinet uses destination blocking when the
// channel is occupied by another packet... source blocking can occur if the
// packet-terminating GAP symbol is not transmitted or is lost... the path
// followed by the packet will remain occupied... The network will recover
// from this occurance with a long-period timeout (~50ms at 80MB/s)."
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "link/channel.hpp"
#include "link/symbol_pool.hpp"
#include "myrinet/control.hpp"
#include "myrinet/crc8.hpp"
#include "myrinet/flow_gate.hpp"
#include "myrinet/slack_buffer.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"

namespace hsfi::myrinet {

class Switch {
 public:
  struct Config {
    std::size_t num_ports = 8;
    /// Character period used to derive default timeouts (12.5 ns @ 80 MB/s).
    sim::Duration character_period = sim::picoseconds(12'500);
    /// Cut-through forwarding latency through the crossbar.
    sim::Duration forwarding_latency = sim::nanoseconds(100);
    /// Connection age after which a held path is reclaimed
    /// (~4 million character periods; ~50 ms at 80 MB/s).
    sim::Duration long_timeout = sim::picoseconds(12'500) * 4'000'000;
    /// Sender-side STOP decay (16 character periods).
    sim::Duration short_timeout = sim::picoseconds(12'500) * 16;
    SlackBuffer::Config slack = {};
    /// Cap on data queued into an output channel ahead of real time, in
    /// characters; bounds how long a STOP takes to actually halt the wire.
    std::size_t max_tx_ahead_chars = 64;

    bool operator==(const Config&) const = default;
  };

  struct PortStats {
    std::uint64_t packets_routed = 0;     ///< completed (GAP-terminated) packets in
    std::uint64_t packets_consumed = 0;   ///< dropped in consume mode
    std::uint64_t invalid_route = 0;      ///< head byte named a dead/absent port
    std::uint64_t long_timeouts = 0;      ///< held paths reclaimed
    std::uint64_t slack_overflow = 0;     ///< symbols lost to slack overflow
    std::uint64_t flow_stops_sent = 0;
    std::uint64_t flow_gos_sent = 0;
  };

  Switch(sim::Simulator& simulator, std::string name, Config config);
  ~Switch();

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Connects port `port`: `rx` is the channel carrying symbols *into* this
  /// switch port, `tx` the channel carrying symbols out of it.
  void attach_port(std::size_t port, link::Channel& rx, link::Channel& tx);

  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }
  [[nodiscard]] PortStats port_stats(std::size_t port) const;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Slack buffer of a port's input side (exposed for monitoring/Fig 9).
  [[nodiscard]] SlackBuffer& input_slack(std::size_t port);

  /// Optional event trace (long timeouts, invalid routes); not owned.
  void set_trace(sim::TraceLog* trace) noexcept { trace_ = trace; }

  /// Scenario hook: emits a flow-control symbol on `port`'s output channel
  /// regardless of the slack buffer's true state — the mechanism behind
  /// lying-GO/lying-STOP misbehavior scenarios. The slack's own stop/go
  /// bookkeeping is deliberately not updated: the switch believes one
  /// thing, the wire says another.
  void inject_flow(std::size_t port, ControlSymbol c) { send_flow(port, c); }

  /// Failure-relevant port events, timestamped for the manifestation
  /// analyzer. Counters in PortStats record that these happened; the hook
  /// records *when*.
  enum class PortEvent : std::uint8_t {
    kSlackOverflow = 0,  ///< symbol lost, input slack full
    kLongTimeout,        ///< held path reclaimed (~50 ms)
    kInvalidRoute,       ///< head byte named a dead/absent port
  };
  using PortEventHandler =
      std::function<void(std::size_t port, PortEvent event, sim::SimTime when)>;
  void on_port_event(PortEventHandler handler) {
    port_event_ = std::move(handler);
  }

  enum class InState : std::uint8_t { kIdle, kConnected, kConsuming };

  /// A port's own mutable fields: the input routing FSM, the output
  /// arbitration and the counters. EventIds stay valid across a fork (the
  /// simulator restores queue slots/generations verbatim).
  struct PortFields {
    // Input routing FSM.
    InState state = InState::kIdle;
    std::size_t out_port = 0;
    std::optional<std::uint8_t> held;
    Crc8 crc_in;
    Crc8 crc_out;
    sim::EventId long_timeout_event = sim::kInvalidEventId;

    // Output arbitration (this port as an output).
    static constexpr std::size_t kFree = static_cast<std::size_t>(-1);
    std::size_t owner_input = kFree;
    std::deque<std::size_t> waiters;
    /// Characters batched toward this output but not yet handed to the
    /// channel (the forwarding-latency event has not fired). Counted so
    /// the wire-ahead throttle sees them — otherwise one pump pass could
    /// serialize a whole slack ahead of a STOP.
    std::size_t pending_chars = 0;

    bool pump_scheduled = false;
    PortStats stats;
  };

  /// Snapshot state: each port's slack buffer, gate and own fields. The
  /// batch pool and the working pump batch are excluded — the batch is
  /// only live inside pump(), and pool contents never affect delivery
  /// order.
  struct State {
    struct PortState {
      SlackBuffer::State slack;
      FlowGate::State gate;
      PortFields fields;
    };
    std::vector<PortState> ports;
  };

  [[nodiscard]] State capture_state() const;
  void restore_state(const State& state);

 private:
  /// SymbolSink adapter: routes a received burst into the owning port.
  struct RxSink final : link::SymbolSink {
    Switch* self = nullptr;
    std::size_t port = 0;
    void on_burst(const link::Burst& burst) override {
      self->on_burst(port, burst);
    }
  };

  struct Port : PortFields {
    std::unique_ptr<SlackBuffer> slack;  // input-side slack buffer
    std::unique_ptr<FlowGate> gate;      // output-side transmit permission
    RxSink sink;
    link::Channel* tx = nullptr;
  };

  void on_burst(std::size_t port, const link::Burst& burst);
  void schedule_pump(std::size_t port);
  void pump(std::size_t port);
  /// Tries to claim output `out` for input `in`; queues `in` as waiter on
  /// failure. Returns success.
  bool acquire_output(std::size_t out, std::size_t in);
  void release_output(std::size_t out);
  /// Ends `p`'s packet: disarms the long timeout and frees its output (the
  /// caller has already batched the packet's tail).
  void close_connection(Port& p);
  void arm_long_timeout(std::size_t port);
  void send_flow(std::size_t port, ControlSymbol c);
  /// True when output `out` may accept more data right now, counting
  /// `queued_chars` already committed in the caller's batch; otherwise
  /// arranges for `in`'s pump to be re-run when it can.
  bool output_ready(std::size_t out, std::size_t in,
                    std::size_t queued_chars);

  sim::Simulator& simulator_;
  std::string name_;
  Config config_;
  std::vector<std::unique_ptr<Port>> ports_;
  sim::TraceLog* trace_ = nullptr;
  PortEventHandler port_event_;
  /// Freelist for the per-pump forwarding batches: each batch rides inside
  /// a forwarding-latency event and returns here after transmission, so
  /// steady-state forwarding allocates nothing per packet. `pump_batch_` is
  /// the working batch pump() fills between flushes (pump never re-enters).
  link::SymbolBufferPool batch_pool_;
  std::vector<link::Symbol> pump_batch_;
};

}  // namespace hsfi::myrinet
