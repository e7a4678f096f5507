#include "host/traffic.hpp"

#include <utility>

namespace hsfi::host {

PacedFlood::PacedFlood(sim::Simulator& simulator, Config config, Send send)
    : simulator_(simulator),
      config_(config),
      send_(std::move(send)),
      rng_(config.seed, config.stream) {}

PacedFlood::~PacedFlood() {
  if (event_ != sim::kInvalidEventId) simulator_.cancel(event_);
}

void PacedFlood::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void PacedFlood::stop() {
  running_ = false;
  if (event_ != sim::kInvalidEventId) {
    simulator_.cancel(event_);
    event_ = sim::kInvalidEventId;
  }
}

void PacedFlood::tick() {
  event_ = sim::kInvalidEventId;
  if (!running_) return;
  if (config_.max_messages != 0 && sent_ >= config_.max_messages) {
    running_ = false;
    return;
  }
  const std::size_t burst = config_.burst_size == 0 ? 1 : config_.burst_size;
  for (std::size_t i = 0; i < burst; ++i) {
    if (config_.max_messages != 0 && sent_ >= config_.max_messages) break;
    send_(sent_++);
  }
  sim::Duration wait = config_.interval * static_cast<sim::Duration>(burst);
  if (config_.jitter > 0.0) {
    const double span = config_.jitter * static_cast<double>(wait);
    wait += static_cast<sim::Duration>((rng_.uniform() - 0.5) * span);
    if (wait < 1) wait = 1;
  }
  event_ = simulator_.schedule_in(wait, [this] { tick(); });
}

UdpFlood::UdpFlood(sim::Simulator& simulator, Host& host, Config config)
    : PacedFlood(simulator,
                 {config.interval, config.burst_size, config.jitter,
                  config.seed, config.src_port, config.max_packets},
                 [&host, config](std::uint64_t) {
                   UdpDatagram dgram;
                   dgram.src_port = config.src_port;
                   dgram.dst_port = config.dst_port;
                   dgram.payload.assign(config.payload_size, config.fill);
                   host.send_udp(config.target, std::move(dgram));
                 }) {}

UdpSink::UdpSink(Host& host, std::uint16_t port) {
  host.bind(port, [this](HostId src, const UdpDatagram& dgram,
                         sim::SimTime when) {
    ++received_;
    bytes_ += dgram.payload.size();
    last_ = when;
    if (tap_) tap_(src, dgram, when);
  });
}

}  // namespace hsfi::host
