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
  if (tx_queue_.size() >= config_.tx_queue_frames) {
    ++stats_.tx_queue_drops;
    return false;
  }
  tx_queue_.push_back(std::move(packet_bytes));
  schedule_pump_tx();
  return true;
}

void HostInterface::schedule_pump_tx() {
  if (tx_pump_scheduled_) return;
  tx_pump_scheduled_ = true;
  simulator_.schedule_now([this] {
    tx_pump_scheduled_ = false;
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
    if (tx_offset_ >= tx_current_.size()) {
      if (tx_queue_.empty()) return;
      std::vector<std::uint8_t> bytes = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      if (tx_mutator_) bytes = tx_mutator_(std::move(bytes));
      frame_symbols_into(bytes, tx_current_);
      tx_offset_ = 0;
    }
    const sim::SimTime free_at = tx_->transmitter_free_at();
    if (free_at > simulator_.now() + ahead_limit) {
      if (!tx_pump_scheduled_) {
        tx_pump_scheduled_ = true;
        simulator_.schedule_at(free_at - ahead_limit, [this] {
          tx_pump_scheduled_ = false;
          pump_tx();
        });
      }
      return;
    }
    const std::size_t n =
        std::min(config_.chunk_symbols, tx_current_.size() - tx_offset_);
    tx_->transmit(
        std::span<const link::Symbol>(tx_current_.data() + tx_offset_, n));
    tx_offset_ += n;
    if (tx_offset_ >= tx_current_.size()) {
      ++stats_.frames_sent;
      tx_current_.clear();
      tx_offset_ = 0;
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
      ++stats_.crc_errors;
      if (rx_error_) rx_error_(RxError::kCrcError, when);
      return;
    case DeliveryStatus::kMarkerError:
      ++stats_.marker_errors;  // consumed and handled as an error
      if (rx_error_) rx_error_(RxError::kMarkerError, when);
      return;
    case DeliveryStatus::kTooShort:
      ++stats_.too_short;
      if (rx_error_) rx_error_(RxError::kTooShort, when);
      return;
    case DeliveryStatus::kOk:
      break;
  }
  if (rx_ring_.size() >= config_.rx_ring_frames) {
    ++stats_.ring_overflows;
    if (rx_error_) rx_error_(RxError::kRingOverflow, when);
    return;
  }
  rx_ring_.push_back(std::move(parsed));
  schedule_ring_drain();
}

void HostInterface::schedule_ring_drain() {
  if (rx_drain_scheduled_ || rx_ring_.empty()) return;
  rx_drain_scheduled_ = true;
  simulator_.schedule_in(config_.rx_processing_time, [this] {
    rx_drain_scheduled_ = false;
    if (rx_ring_.empty()) return;
    Delivered frame = std::move(rx_ring_.front());
    rx_ring_.pop_front();
    ++stats_.frames_delivered;
    if (deliver_) deliver_(std::move(frame), simulator_.now());
    schedule_ring_drain();
  });
}

void HostInterface::reset_for_campaign() {
  stats_ = Stats{};
  tx_queue_.clear();
  tx_current_.clear();
  tx_offset_ = 0;
  rx_ring_.clear();
  deframer_.abort_frame();
}

}  // namespace hsfi::myrinet
