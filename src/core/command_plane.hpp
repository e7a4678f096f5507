// The FPGA-side command plane (paper Fig. 1): SPI entity, communications
// handler, command decoder, and output generator.
//
//   SPI — "serializes the data for transmission to the UART and converts
//   the received data into parallel form to be accessible by the
//   communication handler."
//
//   Communications handler — "configures the UART on boot-up and handles
//   any interrupts coming from the UART or the internal logic. This entity
//   assembles data in the 16-bit SPI protocol format from 8-bit ASCII codes
//   received from the output generator."
//
//   Command decoder — "a large finite-state machine (FSM), which receives
//   data from the communication handler and applies configuration
//   information to the injector circuitry. It also generates error and
//   acknowledgment signals that are interpreted by the output generator."
//
//   Output generator — "another FSM that generates ASCII codes for
//   transmission over the serial link."
//
// Command grammar (one ASCII line per command, CR or LF terminated; <d> is
// the direction, L = left-going pipeline, R = right-going):
//
//   MODE <d> OFF|ON|ONCE        match mode
//   CORR <d> TOGGLE|REPLACE     corrupt mode
//   CMPD <d> <hex32>            compare data
//   CMPM <d> <hex32>            compare mask
//   CMPC <d> <hex1> <hex1>      compare control bits + mask
//   CORD <d> <hex32>            corrupt data
//   CORM <d> <hex32>            corrupt mask
//   CORC <d> <hex1> <hex1>      corrupt control bits + mask
//   CMPS <d> 1|4                compare stride (4 = word-granular hardware)
//   LFSR <d> <hex16>            random-trigger mask (0 = every match fires)
//   CRCR <d> ON|OFF             CRC repatch before EOF
//   INJN <d>                    inject now (one 32-bit segment)
//   REARM <d>                   re-arm a ONCE trigger
//   STAT <d>                    statistics readout (multi-line, then OK)
//   CAPT <d>                    capture readout  (multi-line, then OK)
//   CLRS                        clear statistics and captures
//   PING                        liveness check, answers PONG
//
// Every command is acknowledged with "OK" or "ERR <reason>".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/uart.hpp"
#include "sim/simulator.hpp"

namespace hsfi::core {

class OutputGenerator;

/// FPGA-side SPI shifter: parallelizes inbound frames for the comm handler
/// and serializes outbound frames toward the UART.
class SpiEntity {
 public:
  explicit SpiEntity(Uart& uart) : uart_(uart) {
    uart_.on_spi_rx([this](std::uint16_t frame) {
      if (spi_frame_valid(frame) && rx_) rx_(spi_frame_data(frame));
    });
  }

  void on_rx_byte(std::function<void(std::uint8_t)> handler) {
    rx_ = std::move(handler);
  }
  void tx_byte(std::uint8_t byte) { uart_.spi_tx(spi_frame(byte)); }

 private:
  Uart& uart_;
  std::function<void(std::uint8_t)> rx_;
};

/// Generates ASCII responses and streams them out through the comm handler.
class OutputGenerator {
 public:
  explicit OutputGenerator(SpiEntity& spi) : spi_(spi) {}

  /// Emits `line` followed by CRLF.
  void emit_line(const std::string& line);
  /// Emits a multi-line blob as-is (must already contain newlines).
  void emit_raw(const std::string& text);

  [[nodiscard]] std::uint64_t lines_emitted() const noexcept {
    return state_.lines;
  }

  struct State {
    std::uint64_t lines = 0;
  };
  [[nodiscard]] State capture_state() const noexcept { return state_; }
  void restore_state(const State& state) noexcept { state_ = state; }

 private:
  SpiEntity& spi_;
  State state_;
};

/// The command-decoder FSM. Applies parsed commands to the injector device
/// and drives the output generator with acknowledgments and readouts.
class CommandDecoder {
 public:
  struct Stats {
    std::uint64_t commands_ok = 0;
    std::uint64_t commands_err = 0;
  };

  CommandDecoder(InjectorDevice& device, OutputGenerator& out)
      : device_(device), out_(out) {}

  /// Feed one received ASCII byte (the comm handler's UART interrupt path).
  void feed(std::uint8_t byte);

  [[nodiscard]] const Stats& stats() const noexcept { return state_.stats; }

  /// Snapshot state: the partial command line and counters.
  struct State {
    std::string line;
    Stats stats;
  };
  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

 private:
  void execute(const std::string& line);
  void ok() {
    ++state_.stats.commands_ok;
    out_.emit_line("OK");
  }
  void err(const std::string& why) {
    ++state_.stats.commands_err;
    out_.emit_line("ERR " + why);
  }

  InjectorDevice& device_;
  OutputGenerator& out_;
  State state_;
};

/// The communications handler: boots the UART and wires interrupts between
/// the SPI entity, the command decoder, and the output generator.
class CommHandler {
 public:
  CommHandler(sim::Simulator& simulator, Uart& uart, InjectorDevice& device);

  [[nodiscard]] CommandDecoder& decoder() noexcept { return decoder_; }
  [[nodiscard]] OutputGenerator& output() noexcept { return output_; }

 private:
  SpiEntity spi_;
  OutputGenerator output_;
  CommandDecoder decoder_;
};

/// The external system's end of the RS-232 cable (what NFTAPE talks
/// through). Commands queue and execute strictly in order; each completes
/// when its "OK"/"ERR" acknowledgment line arrives.
class SerialControlHost {
 public:
  /// Response: every line the command produced, acknowledgment last.
  using Callback = std::function<void(std::vector<std::string> lines)>;

  SerialControlHost(sim::Simulator& simulator, Uart& uart);

  /// Queues `line` (without terminator) for transmission.
  void send_command(std::string line, Callback callback = nullptr);

  [[nodiscard]] std::uint64_t commands_completed() const noexcept {
    return state_.completed;
  }
  /// True when every queued command has been acknowledged.
  [[nodiscard]] bool idle() const noexcept {
    return state_.queue.empty() && !state_.in_flight;
  }

  struct PendingCommand {
    std::string line;
    Callback callback;
  };

  /// Snapshot state. Captured at quiescent settle boundaries the queue is
  /// empty; pending callbacks (if any) are copied as-is, so capture while a
  /// campaign's fault programming is in flight is not supported.
  struct State {
    std::vector<PendingCommand> queue;
    bool in_flight = false;
    std::string rx_line;
    std::vector<std::string> rx_lines;
    std::uint64_t completed = 0;
  };

  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

 private:
  void pump();
  void on_byte(std::uint8_t byte);

  sim::Simulator& simulator_;
  Uart& uart_;
  State state_;
};

}  // namespace hsfi::core
