#include "myrinet/slack_buffer.hpp"

#include <utility>

namespace hsfi::myrinet {

SlackBuffer::SlackBuffer(sim::Simulator& simulator, Config config,
                         std::function<void(ControlSymbol)> send_flow)
    : simulator_(simulator),
      config_(config),
      send_flow_(std::move(send_flow)) {}

SlackBuffer::~SlackBuffer() {
  if (refresh_event_ != sim::kInvalidEventId) simulator_.cancel(refresh_event_);
}

bool SlackBuffer::push(link::Symbol symbol) {
  if (queue_.size() >= config_.capacity) {
    ++drops_;
    // Overflow still matters for flow control: stay in stopped state.
    after_occupancy_change();
    return false;
  }
  queue_.push_back(symbol);
  after_occupancy_change();
  return true;
}

std::size_t SlackBuffer::push_run(std::span<const link::Symbol> symbols) {
  const std::size_t free =
      config_.capacity > queue_.size() ? config_.capacity - queue_.size() : 0;
  const std::size_t accepted = symbols.size() < free ? symbols.size() : free;
  if (probe_) {
    for (std::size_t i = 0; i < accepted; ++i) push(symbols[i]);
    return accepted;
  }
  if (accepted == 0) return 0;
  queue_.insert(queue_.end(), symbols.begin(),
                symbols.begin() + static_cast<std::ptrdiff_t>(accepted));
  // One watermark evaluation for the whole run is emission-equivalent to
  // per-push evaluation: stopping_ latches, so a high-watermark crossing
  // inside the run produces the same single STOP at the same simulated
  // time either way.
  after_occupancy_change();
  return accepted;
}

std::optional<link::Symbol> SlackBuffer::pop() {
  if (queue_.empty()) return std::nullopt;
  link::Symbol s = queue_.front();
  queue_.pop_front();
  after_occupancy_change();
  return s;
}

void SlackBuffer::after_occupancy_change() {
  if (!stopping_ && queue_.size() >= config_.high_watermark) {
    stopping_ = true;
    emit(ControlSymbol::kStop);
    arm_refresh();
  } else if (stopping_ && queue_.size() <= config_.low_watermark) {
    stopping_ = false;
    if (refresh_event_ != sim::kInvalidEventId) {
      simulator_.cancel(refresh_event_);
      refresh_event_ = sim::kInvalidEventId;
    }
    emit(ControlSymbol::kGo);
  } else if (probe_) {
    probe_(simulator_.now(), queue_.size(), std::nullopt);
  }
}

void SlackBuffer::emit(ControlSymbol c) {
  if (probe_) probe_(simulator_.now(), queue_.size(), c);
  if (send_flow_) send_flow_(c);
}

void SlackBuffer::arm_refresh() {
  if (config_.stop_refresh <= 0) return;
  refresh_event_ = simulator_.schedule_in(config_.stop_refresh, [this] {
    refresh_event_ = sim::kInvalidEventId;
    if (!stopping_) return;
    emit(ControlSymbol::kStop);
    arm_refresh();
  });
}

}  // namespace hsfi::myrinet
