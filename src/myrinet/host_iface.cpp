#include "myrinet/host_iface.hpp"

#include <utility>

namespace hsfi::myrinet {

HostInterface::HostInterface(sim::Simulator& simulator, std::string name,
                             Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      config_(config),
      gate_(simulator, config.short_timeout, [this] { schedule_pump_tx(); }) {
  deframer_.on_frame([this](std::vector<std::uint8_t> frame, sim::SimTime when) {
    handle_frame(std::move(frame), when);
  });
  deframer_.on_flow([this](ControlSymbol c, sim::SimTime) {
    gate_.on_flow(c);
  });
}

HostInterface::~HostInterface() = default;

void HostInterface::attach(link::Channel& rx, link::Channel& tx) {
  rx.attach(*this);
  tx_ = &tx;
}

bool HostInterface::send(const Packet& packet) {
  return send_raw(serialize(packet));
}

bool HostInterface::send_raw(std::vector<std::uint8_t> packet_bytes) {
  if (fields_.tx_queue.size() >= config_.tx_queue_frames) {
    ++fields_.stats.tx_queue_drops;
    return false;
  }
  fields_.tx_queue.push_back(std::move(packet_bytes));
  schedule_pump_tx();
  return true;
}

void HostInterface::schedule_pump_tx() {
  if (fields_.tx_pump_scheduled) return;
  fields_.tx_pump_scheduled = true;
  simulator_.schedule_now([this] {
    fields_.tx_pump_scheduled = false;
    pump_tx();
  });
}

void HostInterface::pump_tx() {
  if (tx_ == nullptr) return;
  const auto ahead_limit =
      config_.character_period *
      static_cast<sim::Duration>(config_.max_tx_ahead_chars);
  for (;;) {
    if (!gate_.open()) return;  // resumes via the gate callback
    if (fields_.tx_offset >= fields_.tx_current.size()) {
      if (fields_.tx_queue.empty()) return;
      std::vector<std::uint8_t> bytes = std::move(fields_.tx_queue.front());
      fields_.tx_queue.pop_front();
      if (tx_mutator_) bytes = tx_mutator_(std::move(bytes));
      frame_symbols_into(bytes, fields_.tx_current);
      fields_.tx_offset = 0;
    }
    const sim::SimTime free_at = tx_->transmitter_free_at();
    if (free_at > simulator_.now() + ahead_limit) {
      if (!fields_.tx_pump_scheduled) {
        fields_.tx_pump_scheduled = true;
        simulator_.schedule_at(free_at - ahead_limit, [this] {
          fields_.tx_pump_scheduled = false;
          pump_tx();
        });
      }
      return;
    }
    const std::size_t n = std::min(
        config_.chunk_symbols, fields_.tx_current.size() - fields_.tx_offset);
    tx_->transmit(std::span<const link::Symbol>(
        fields_.tx_current.data() + fields_.tx_offset, n));
    fields_.tx_offset += n;
    if (fields_.tx_offset >= fields_.tx_current.size()) {
      ++fields_.stats.frames_sent;
      fields_.tx_current.clear();
      fields_.tx_offset = 0;
    }
  }
}

void HostInterface::on_burst(const link::Burst& burst) {
  deframer_.feed_burst(burst);
}

void HostInterface::handle_frame(std::vector<std::uint8_t> frame,
                                 sim::SimTime when) {
  Delivered parsed = parse_delivered(frame);
  switch (parsed.status) {
    case DeliveryStatus::kCrcError:
      ++fields_.stats.crc_errors;
      simulator_.observe(when, sim::Observed::kNicCrcError, name_);
      return;
    case DeliveryStatus::kMarkerError:
      ++fields_.stats.marker_errors;  // consumed and handled as an error
      simulator_.observe(when, sim::Observed::kNicMarkerError, name_);
      return;
    case DeliveryStatus::kTooShort:
      ++fields_.stats.too_short;
      simulator_.observe(when, sim::Observed::kNicTooShort, name_);
      return;
    case DeliveryStatus::kOk:
      break;
  }
  if (fields_.rx_ring.size() >= config_.rx_ring_frames) {
    ++fields_.stats.ring_overflows;
    simulator_.observe(when, sim::Observed::kNicRingOverflow, name_);
    return;
  }
  fields_.rx_ring.push_back(std::move(parsed));
  schedule_ring_drain();
}

void HostInterface::schedule_ring_drain() {
  if (fields_.rx_drain_scheduled || fields_.rx_ring.empty()) return;
  fields_.rx_drain_scheduled = true;
  simulator_.schedule_in(config_.rx_processing_time, [this] {
    fields_.rx_drain_scheduled = false;
    if (fields_.rx_ring.empty()) return;
    Delivered frame = std::move(fields_.rx_ring.front());
    fields_.rx_ring.pop_front();
    ++fields_.stats.frames_delivered;
    if (deliver_) deliver_(std::move(frame), simulator_.now());
    schedule_ring_drain();
  });
}

void HostInterface::reset_for_campaign() {
  fields_.stats = Stats{};
  fields_.tx_queue.clear();
  fields_.tx_current.clear();
  fields_.tx_offset = 0;
  fields_.rx_ring.clear();
  deframer_.abort_frame();
}

}  // namespace hsfi::myrinet
