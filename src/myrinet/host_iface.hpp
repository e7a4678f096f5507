// Myrinet host interface (the paper's Fig. 7 LANai-style NIC, simplified).
//
// Transmit: packets queue in a finite send queue and are serialized in
// chunks, pausing between chunks when the far end asserts STOP (the chunk
// size bounds the data in flight after a STOP, playing the role of the
// hardware's wire-side slack).
//
// Receive: the symbol stream is deframed at line rate; each completed frame
// is CRC-checked and its marker byte validated ("If the packet reaches a
// destination interface with the MSB set to one... consumed and handled as
// an error"), then placed in a finite receive ring drained at host speed.
// A frame arriving with the ring full is dropped and counted, like a real
// NIC whose host buffers are exhausted; wire-level STOP/GO originates from
// the switch's symbol-granularity slack buffers, not from the host ring.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "link/channel.hpp"
#include "myrinet/flow_gate.hpp"
#include "myrinet/framing.hpp"
#include "myrinet/packet.hpp"
#include "sim/simulator.hpp"

namespace hsfi::myrinet {

class HostInterface final : public link::SymbolSink {
 public:
  struct Config {
    sim::Duration character_period = sim::picoseconds(12'500);
    /// Sender-side STOP decay: 16 character periods.
    sim::Duration short_timeout = sim::picoseconds(12'500) * 16;
    std::size_t tx_queue_frames = 64;
    std::size_t rx_ring_frames = 32;
    /// Transmit chunk between flow-control checks, in symbols.
    std::size_t chunk_symbols = 32;
    std::size_t max_tx_ahead_chars = 64;
    /// Host-side cost to consume one received frame (interrupt + stack).
    sim::Duration rx_processing_time = sim::microseconds(20);

    bool operator==(const Config&) const = default;
  };

  struct Stats {
    std::uint64_t frames_sent = 0;        ///< fully serialized onto the wire
    std::uint64_t tx_queue_drops = 0;     ///< send() refused, queue full
    std::uint64_t frames_delivered = 0;   ///< handed to the host stack
    std::uint64_t crc_errors = 0;
    std::uint64_t marker_errors = 0;      ///< MSB-set marker, consumed as error
    std::uint64_t too_short = 0;
    std::uint64_t ring_overflows = 0;     ///< frame arrived with ring full
  };

  HostInterface(sim::Simulator& simulator, std::string name, Config config);
  ~HostInterface() override;

  HostInterface(const HostInterface&) = delete;
  HostInterface& operator=(const HostInterface&) = delete;

  /// `rx` carries symbols into this interface; `tx` carries symbols out.
  void attach(link::Channel& rx, link::Channel& tx);

  /// Queues a packet for transmission. Returns false (and counts a drop)
  /// when the send queue is full.
  bool send(const Packet& packet);
  bool send_raw(std::vector<std::uint8_t> packet_bytes);

  /// Handler for frames that pass CRC and marker checks, called at host
  /// drain speed (one frame per rx_processing_time).
  using DeliverHandler = std::function<void(Delivered frame, sim::SimTime when)>;
  void on_deliver(DeliverHandler handler) { deliver_ = std::move(handler); }

  /// Receive-side error classes the NIC detects and consumes itself; they
  /// never reach the host stack, so an external monitor (the manifestation
  /// analyzer) can only see them through this hook.
  enum class RxError : std::uint8_t {
    kCrcError = 0,
    kMarkerError,
    kTooShort,
    kRingOverflow,
  };
  using RxErrorHandler = std::function<void(RxError error, sim::SimTime when)>;
  void on_rx_error(RxErrorHandler handler) { rx_error_ = std::move(handler); }

  /// Scenario hook: transform a queued packet's serialized bytes (route
  /// prefix through trailing CRC-8) just before framing onto the wire —
  /// e.g. truncate the payload and repatch the CRC so the shortened frame
  /// is still wire-valid. Like the deliver/rx-error handlers this is
  /// per-run wiring, not snapshot state. Pass nullptr to uninstall.
  using TxMutator =
      std::function<std::vector<std::uint8_t>(std::vector<std::uint8_t>)>;
  void set_tx_mutator(TxMutator mutator) { tx_mutator_ = std::move(mutator); }

  [[nodiscard]] const Stats& stats() const noexcept { return fields_.stats; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t tx_backlog() const noexcept {
    return fields_.tx_queue.size() +
           (fields_.tx_offset < fields_.tx_current.size() ? 1u : 0u);
  }
  [[nodiscard]] std::size_t rx_ring_size() const noexcept {
    return fields_.rx_ring.size();
  }

  /// Resets counters and queues to a known-good state between campaign runs.
  void reset_for_campaign();

  /// The interface's own mutable fields, held as one member. Both pump
  /// flags and the in-flight serialization cursor are here because the
  /// matching pump events sit in the simulator queue and are restored with
  /// it.
  struct Fields {
    // Transmit side.
    std::deque<std::vector<std::uint8_t>> tx_queue;
    /// Framed symbols of the in-flight packet.
    std::vector<link::Symbol> tx_current;
    std::size_t tx_offset = 0;
    bool tx_pump_scheduled = false;
    // Receive side.
    std::deque<Delivered> rx_ring;
    bool rx_drain_scheduled = false;
    Stats stats;
  };

  /// Snapshot state: the gate's and the deframer's states plus the
  /// interface's own fields. Handlers (deliver/rx-error) are wiring and
  /// stay attached.
  struct State {
    FlowGate::State gate;
    Deframer::State deframer;
    Fields fields;
  };

  [[nodiscard]] State capture_state() const {
    return State{gate_.capture_state(), deframer_.capture_state(), fields_};
  }
  void restore_state(const State& state) {
    gate_.restore_state(state.gate);
    deframer_.restore_state(state.deframer);
    fields_ = state.fields;
  }

  // link::SymbolSink
  void on_burst(const link::Burst& burst) override;

 private:
  void pump_tx();
  void schedule_pump_tx();
  void handle_frame(std::vector<std::uint8_t> frame, sim::SimTime when);
  void schedule_ring_drain();

  sim::Simulator& simulator_;
  std::string name_;
  Config config_;
  link::Channel* tx_ = nullptr;
  FlowGate gate_;
  Deframer deframer_;
  Fields fields_;
  DeliverHandler deliver_;
  RxErrorHandler rx_error_;
  TxMutator tx_mutator_;
};

}  // namespace hsfi::myrinet
