#include "myrinet/flow_gate.hpp"

#include <utility>

namespace hsfi::myrinet {

FlowGate::FlowGate(sim::Simulator& simulator, sim::Duration short_timeout,
                   std::function<void()> on_resume)
    : simulator_(simulator),
      short_timeout_(short_timeout),
      on_resume_(std::move(on_resume)) {}

FlowGate::~FlowGate() { disarm_timeout(); }

void FlowGate::on_flow(ControlSymbol c) {
  switch (c) {
    case ControlSymbol::kStop:
      ++state_.stops;
      state_.open = false;
      arm_timeout();
      break;
    case ControlSymbol::kGo:
      ++state_.gos;
      if (!state_.open) resume(/*by_timeout=*/false);
      break;
    case ControlSymbol::kIdle:
    case ControlSymbol::kGap:
      break;
  }
}

void FlowGate::arm_timeout() {
  disarm_timeout();
  state_.timeout_event = simulator_.schedule_in(short_timeout_, [this] {
    state_.timeout_event = sim::kInvalidEventId;
    if (!state_.open) resume(/*by_timeout=*/true);
  });
}

void FlowGate::disarm_timeout() {
  if (state_.timeout_event != sim::kInvalidEventId) {
    simulator_.cancel(state_.timeout_event);
    state_.timeout_event = sim::kInvalidEventId;
  }
}

void FlowGate::resume(bool by_timeout) {
  state_.open = true;
  disarm_timeout();
  if (by_timeout) ++state_.timeout_resumes;
  if (on_resume_) on_resume_();
}

}  // namespace hsfi::myrinet
