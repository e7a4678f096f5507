// The off-FPGA UART chip and its RS-232 link to the external system.
//
// Paper §3.3: "the universal asynchronous receiver/transmitter (UART) used
// to support serial communication channels between the device and an
// external system is off-loaded to a separate chip. This simplifies the
// design and enables conservation of I/Os in the FPGA."
//
// The model keeps RS-232 byte pacing (10 bit times per byte: start bit,
// 8 data, stop bit) in both directions and exchanges 16-bit SPI frames with
// the FPGA-side SPI entity. The FPGA "can be reprogrammed while inserted in
// the network" through this path (§3.2).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"

namespace hsfi::core {

/// 16-bit SPI frame layout: [15:8] status, [7:0] data.
inline constexpr std::uint16_t kSpiDataValid = 0x0100;

[[nodiscard]] constexpr std::uint16_t spi_frame(std::uint8_t byte) noexcept {
  return static_cast<std::uint16_t>(kSpiDataValid | byte);
}
[[nodiscard]] constexpr bool spi_frame_valid(std::uint16_t frame) noexcept {
  return (frame & kSpiDataValid) != 0;
}
[[nodiscard]] constexpr std::uint8_t spi_frame_data(std::uint16_t frame) noexcept {
  return static_cast<std::uint8_t>(frame & 0xFF);
}

class Uart {
 public:
  struct Config {
    std::uint32_t baud = 115'200;
    /// SPI shift time for one 16-bit frame (16 bits at a few MHz).
    sim::Duration spi_frame_time = sim::microseconds(2);
  };

  explicit Uart(sim::Simulator& simulator) : Uart(simulator, Config{}) {}
  Uart(sim::Simulator& simulator, Config config);

  Uart(const Uart&) = delete;
  Uart& operator=(const Uart&) = delete;

  /// One byte on the RS-232 wire: 10 bit times.
  [[nodiscard]] sim::Duration byte_time() const noexcept {
    return sim::kSecond * 10 / config_.baud;
  }

  // ---- RS-232 side (external control host) ----
  /// Queues a byte from the external system; it arrives at the FPGA after
  /// serialization (paced back to back with previously queued bytes).
  void rs232_write(std::uint8_t byte);
  /// Sink for bytes the device sends to the external system.
  void on_rs232_read(std::function<void(std::uint8_t)> handler) {
    rs232_read_ = std::move(handler);
  }

  // ---- SPI side (FPGA) ----
  /// Sink for frames shifted toward the FPGA.
  void on_spi_rx(std::function<void(std::uint16_t)> handler) {
    spi_rx_ = std::move(handler);
  }
  /// Frame shifted from the FPGA; valid frames serialize out over RS-232.
  void spi_tx(std::uint16_t frame);

  /// Boot-time configuration handshake (the communications handler
  /// "configures the UART on boot-up").
  void configure() noexcept { state_.configured = true; }
  [[nodiscard]] bool configured() const noexcept { return state_.configured; }

  [[nodiscard]] std::uint64_t bytes_to_fpga() const noexcept {
    return state_.to_fpga;
  }
  [[nodiscard]] std::uint64_t bytes_to_host() const noexcept {
    return state_.to_host;
  }

  /// Snapshot state: serialization horizons and byte counters (handlers are
  /// wiring and stay attached; in-flight bytes ride in the simulator queue).
  struct State {
    bool configured = false;
    sim::SimTime rx_free_at = 0;  ///< RS-232 receive serialization
    sim::SimTime tx_free_at = 0;  ///< RS-232 transmit serialization
    std::uint64_t to_fpga = 0;
    std::uint64_t to_host = 0;
  };

  [[nodiscard]] State capture_state() const noexcept { return state_; }
  void restore_state(const State& state) noexcept { state_ = state; }

 private:
  sim::Simulator& simulator_;
  Config config_;
  State state_;
  std::function<void(std::uint8_t)> rs232_read_;
  std::function<void(std::uint16_t)> spi_rx_;
};

}  // namespace hsfi::core
