#include "core/uart.hpp"

#include <algorithm>

namespace hsfi::core {

Uart::Uart(sim::Simulator& simulator, Config config)
    : simulator_(simulator), config_(config) {}

void Uart::rs232_write(std::uint8_t byte) {
  const sim::SimTime start = std::max(state_.rx_free_at, simulator_.now());
  state_.rx_free_at = start + byte_time();
  // After the byte deserializes, the UART shifts it to the FPGA as an SPI
  // frame; the FPGA sees it one SPI frame time later.
  const sim::SimTime at_fpga = state_.rx_free_at + config_.spi_frame_time;
  simulator_.schedule_at(at_fpga, [this, byte] {
    // The chip stays idle until the comm handler boots it.
    if (!state_.configured) return;
    ++state_.to_fpga;
    if (spi_rx_) spi_rx_(spi_frame(byte));
  });
}

void Uart::spi_tx(std::uint16_t frame) {
  if (!spi_frame_valid(frame)) return;
  const std::uint8_t byte = spi_frame_data(frame);
  const sim::SimTime start = std::max(state_.tx_free_at, simulator_.now());
  state_.tx_free_at = start + byte_time();
  simulator_.schedule_at(state_.tx_free_at, [this, byte] {
    ++state_.to_host;
    if (rs232_read_) rs232_read_(byte);
  });
}

}  // namespace hsfi::core
