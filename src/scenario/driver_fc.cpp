#include "scenario/driver_fc.hpp"

#include <utility>

#include "fc/sequence.hpp"

namespace hsfi::scenario {

struct FcScenarioDriver::State {
  sim::Simulator* simulator = nullptr;
  std::vector<FcNodeHooks> nodes;
  FcScenarioDriver::Params params;
  bool armed = false;
  std::uint64_t fired = 0;

  /// Injected sequences carry a SEQ_ID/OX_ID band the workload floods never
  /// use (floods count up from 0), keyed by firing order so repeated steps
  /// stay distinguishable in the reassembler.
  [[nodiscard]] fc::FcHeader scenario_header(std::size_t src,
                                             std::size_t dst) const {
    fc::FcHeader h;
    h.s_id = nodes[src].port_id;
    h.d_id = nodes[dst].port_id;
    h.seq_id = static_cast<std::uint8_t>(0xE0 | (fired & 0x0F));
    h.ox_id = static_cast<std::uint16_t>(0xEE00 | (fired & 0xFF));
    return h;
  }

  /// Static so scheduled events hold only the shared state block, never the
  /// (destructible) driver.
  static void fire(const std::shared_ptr<State>& st, const Step& step);
};

void FcScenarioDriver::State::fire(const std::shared_ptr<State>& st,
                                   const Step& step) {
  if (!st->armed || st->nodes.empty()) return;
  const auto node = static_cast<std::size_t>(step.node) % st->nodes.size();
  const auto target = (node + 1) % st->nodes.size();
  auto& port = *st->nodes[node].port;
  switch (step.kind) {
    case StepKind::kRrdyFlood:
      port.inject_rrdy(step.count == 0 ? 1 : step.count);
      break;
    case StepKind::kDupSequence: {
      // Same complete sequence twice: frame-for-frame identical, same
      // SEQ_ID/OX_ID. The inverted fill makes the duplicate's delivery
      // visible to the workload's payload check.
      const std::vector<std::uint8_t> payload(
          st->params.payload_size,
          static_cast<std::uint8_t>(~st->params.payload_fill));
      const auto frames = fc::SequenceBuilder::build(
          st->scenario_header(node, target), payload, st->params.frame_chunk);
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& f : frames) port.send(f);
      }
      break;
    }
    case StepKind::kReorderSequence: {
      // Three chunks so there are two continuation frames to swap; the
      // receiver's in-order SEQ_CNT check rejects the early arrival.
      const std::vector<std::uint8_t> payload(st->params.frame_chunk * 3,
                                              st->params.payload_fill);
      auto frames = fc::SequenceBuilder::build(
          st->scenario_header(node, target), payload, st->params.frame_chunk);
      if (frames.size() >= 3) std::swap(frames[1], frames[2]);
      for (const auto& f : frames) port.send(f);
      break;
    }
    default:
      return;  // Myrinet step in an FC scenario: validated away upstream
  }
  ++st->fired;
  st->simulator->observe(st->simulator->now(), sim::Observed::kScenarioStep,
                         "scenario", static_cast<std::uint32_t>(node));
}

FcScenarioDriver::FcScenarioDriver(sim::Simulator& simulator,
                                   std::vector<FcNodeHooks> nodes,
                                   Params params)
    : state_(std::make_shared<State>()) {
  state_->simulator = &simulator;
  state_->nodes = std::move(nodes);
  state_->params = params;
}

FcScenarioDriver::~FcScenarioDriver() { disarm(); }

void FcScenarioDriver::arm(const ScenarioSpec& spec, std::uint64_t seed) {
  (void)seed;
  disarm();
  state_->armed = true;
  state_->fired = 0;
  for (const auto& step : spec.steps) {
    if (medium_of(step.kind) != Medium::kFc) continue;
    state_->simulator->schedule_in(
        step.at, [st = state_, step] { State::fire(st, step); });
  }
}

void FcScenarioDriver::disarm() {
  state_->armed = false;
}

std::uint64_t FcScenarioDriver::fired() const noexcept {
  return state_->fired;
}

}  // namespace hsfi::scenario
