// Workload generators: the campaign's "simple UDP packet generation
// program" and its receiving counterpart.
//
// Paper §4.2: "Network loads were simulated using a simple UDP packet
// generation program, running concurrently with the standard Unix ping
// program with the flood option..." and §4.3.1: "The messages were UDP
// packets designed in such a way that the symbol mask we corrupted did not
// appear in the message itself."
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "host/node.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hsfi::host {

/// The campaign workload's destination port: the discard service, whose
/// sink only counts what arrives.
inline constexpr std::uint16_t kWorkloadPort = 9;
/// The byte every workload payload is filled with, chosen so the corrupted
/// symbol mask "did not appear in the message itself" (§4.3.1). Both media
/// check each delivered payload against it.
inline constexpr std::uint8_t kPayloadFill = 0x5A;

/// The message program's pacing, one implementation for every medium:
/// each tick hands the next `burst_size` message ordinals (0, 1, 2, ...)
/// to the send callback back to back, then waits `interval x burst_size`.
/// UdpFlood sends each ordinal as a datagram; the FC fabric sends it as an
/// FC-2 sequence. Sharing this code is what makes the Knob axes (udp-us,
/// burst) mean the same thing on either medium.
class PacedFlood {
 public:
  struct Config {
    sim::Duration interval = sim::microseconds(100);
    /// Messages emitted back to back per tick ("full capacity" bursts that
    /// collide at switch outputs and exercise STOP/GO flow control).
    std::size_t burst_size = 1;
    /// Uniform jitter applied to each tick's wait, as a fraction of it, so
    /// periodic flows do not phase-lock. Drawn from Rng(seed, stream).
    double jitter = 0.0;
    std::uint64_t seed = 1;
    std::uint64_t stream = 0;
    /// 0 = run until stop().
    std::uint64_t max_messages = 0;
  };
  /// Sends message number `ordinal`.
  using Send = std::function<void(std::uint64_t ordinal)>;

  PacedFlood(sim::Simulator& simulator, Config config, Send send);
  /// Cancels the pending tick.
  ~PacedFlood();

  PacedFlood(const PacedFlood&) = delete;
  PacedFlood& operator=(const PacedFlood&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  void tick();

  sim::Simulator& simulator_;
  Config config_;
  Send send_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  sim::EventId event_ = sim::kInvalidEventId;
  sim::Rng rng_;
};

/// Sends fixed-size datagrams to one destination; its pacing RNG stream is
/// the source port.
class UdpFlood final : public PacedFlood {
 public:
  struct Config {
    HostId target = 0;
    std::uint16_t src_port = 2048;
    std::uint16_t dst_port = kWorkloadPort;
    std::size_t payload_size = 64;
    sim::Duration interval = sim::microseconds(100);
    std::uint8_t fill = kPayloadFill;
    /// 0 = run until stop().
    std::uint64_t max_packets = 0;
    /// Pacing, as in PacedFlood::Config.
    std::size_t burst_size = 1;
    double jitter = 0.0;
    std::uint64_t seed = 1;
  };

  UdpFlood(sim::Simulator& simulator, Host& host, Config config);
};

/// Binds a port and counts what arrives (the receiving message program).
class UdpSink {
 public:
  UdpSink(Host& host, std::uint16_t port);

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] sim::SimTime last_arrival() const noexcept { return last_; }
  void reset() noexcept {
    received_ = 0;
    bytes_ = 0;
    last_ = 0;
  }

  /// Optional tap on every delivery.
  void on_receive(
      std::function<void(HostId, const UdpDatagram&, sim::SimTime)> tap) {
    tap_ = std::move(tap);
  }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
  sim::SimTime last_ = 0;
  std::function<void(HostId, const UdpDatagram&, sim::SimTime)> tap_;
};

}  // namespace hsfi::host
