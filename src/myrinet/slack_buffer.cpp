#include "myrinet/slack_buffer.hpp"

#include <utility>

namespace hsfi::myrinet {

SlackBuffer::SlackBuffer(sim::Simulator& simulator, Config config,
                         std::function<void(ControlSymbol)> send_flow)
    : simulator_(simulator),
      config_(config),
      send_flow_(std::move(send_flow)) {}

SlackBuffer::~SlackBuffer() {
  if (state_.refresh_event != sim::kInvalidEventId) {
    simulator_.cancel(state_.refresh_event);
  }
}

bool SlackBuffer::push(link::Symbol symbol) {
  if (state_.queue.size() >= config_.capacity) {
    ++state_.drops;
    // Overflow still matters for flow control: stay in stopped state.
    after_occupancy_change();
    return false;
  }
  state_.queue.push_back(symbol);
  after_occupancy_change();
  return true;
}

std::size_t SlackBuffer::push_run(std::span<const link::Symbol> symbols) {
  const std::size_t free =
      config_.capacity > state_.queue.size()
          ? config_.capacity - state_.queue.size()
          : 0;
  const std::size_t accepted = symbols.size() < free ? symbols.size() : free;
  if (probe_) {
    for (std::size_t i = 0; i < accepted; ++i) push(symbols[i]);
    return accepted;
  }
  if (accepted == 0) return 0;
  state_.queue.insert(state_.queue.end(), symbols.begin(),
                      symbols.begin() + static_cast<std::ptrdiff_t>(accepted));
  // One watermark evaluation for the whole run is emission-equivalent to
  // per-push evaluation: `stopping` latches, so a high-watermark crossing
  // inside the run produces the same single STOP at the same simulated
  // time either way.
  after_occupancy_change();
  return accepted;
}

std::optional<link::Symbol> SlackBuffer::pop() {
  if (state_.queue.empty()) return std::nullopt;
  link::Symbol s = state_.queue.front();
  state_.queue.pop_front();
  after_occupancy_change();
  return s;
}

void SlackBuffer::after_occupancy_change() {
  if (!state_.stopping && state_.queue.size() >= config_.high_watermark) {
    state_.stopping = true;
    emit(ControlSymbol::kStop);
    arm_refresh();
  } else if (state_.stopping && state_.queue.size() <= config_.low_watermark) {
    state_.stopping = false;
    if (state_.refresh_event != sim::kInvalidEventId) {
      simulator_.cancel(state_.refresh_event);
      state_.refresh_event = sim::kInvalidEventId;
    }
    emit(ControlSymbol::kGo);
  } else if (probe_) {
    probe_(simulator_.now(), state_.queue.size(), std::nullopt);
  }
}

void SlackBuffer::emit(ControlSymbol c) {
  if (probe_) probe_(simulator_.now(), state_.queue.size(), c);
  if (send_flow_) send_flow_(c);
}

void SlackBuffer::arm_refresh() {
  if (config_.stop_refresh <= 0) return;
  state_.refresh_event = simulator_.schedule_in(config_.stop_refresh, [this] {
    state_.refresh_event = sim::kInvalidEventId;
    if (!state_.stopping) return;
    emit(ControlSymbol::kStop);
    arm_refresh();
  });
}

}  // namespace hsfi::myrinet
