#include "nftape/board.hpp"

#include <utility>

#include "nftape/faults.hpp"
#include "nftape/testbed.hpp"

namespace hsfi::nftape {

InjectorBoard::InjectorBoard(sim::Simulator& simulator,
                             const TestbedConfig& config,
                             sim::Duration character_period,
                             const std::string& cable_prefix) {
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const std::string name = cable_prefix + std::to_string(i);
    Cable cable;
    cable.first = std::make_unique<link::DuplexLink>(
        simulator, name, character_period, config.cable_delay);
    if (config.with_injector && i == config.injected_node) {
      cable.second = std::make_unique<link::DuplexLink>(
          simulator, name + "b", character_period, config.cable_delay);
      injector_ = std::make_unique<core::InjectorDevice>(
          simulator, "fi0", config.injector_config);
      // Device between the two segments: left = node, right = element.
      injector_->attach_left(/*rx=*/cable.first->a_to_b(),
                             /*tx=*/cable.first->b_to_a());
      injector_->attach_right(/*rx=*/cable.second->b_to_a(),
                              /*tx=*/cable.second->a_to_b());
    }
    for (auto* segment : {cable.first.get(), cable.second.get()}) {
      if (segment == nullptr) continue;
      channels_.push_back(&segment->a_to_b());
      channels_.push_back(&segment->b_to_a());
    }
    cables_.push_back(std::move(cable));
  }

  if (injector_) {
    uart_ = std::make_unique<core::Uart>(simulator);
    comm_ = std::make_unique<core::CommHandler>(simulator, *uart_, *injector_);
    control_ = std::make_unique<core::SerialControlHost>(simulator, *uart_);
  }
}

InjectorBoard::~InjectorBoard() = default;

InjectorBoard::Ends InjectorBoard::ends(std::size_t node) {
  Cable& cable = cables_.at(node);
  link::DuplexLink& to_element = cable.second ? *cable.second : *cable.first;
  return Ends{cable.first->b_to_a(), cable.first->a_to_b(),
              to_element.a_to_b(), to_element.b_to_a()};
}

void InjectorBoard::program_fault(core::Direction dir,
                                  const core::InjectorConfig& config,
                                  bool via_serial) {
  if (via_serial) {
    for (const auto& cmd : to_serial_commands(config, dir)) {
      control_->send_command(cmd);
    }
  } else {
    injector_->apply(dir, config);
  }
}

void InjectorBoard::disarm_faults(bool via_serial) {
  if (via_serial) {
    control_->send_command("MODE L OFF");
    control_->send_command("MODE R OFF");
  } else {
    for (const auto dir :
         {core::Direction::kLeftToRight, core::Direction::kRightToLeft}) {
      auto cfg = injector_->config(dir);
      cfg.match_mode = core::MatchMode::kOff;
      injector_->apply(dir, cfg);
    }
  }
}

void InjectorBoard::report_injections(
    analysis::ManifestationAnalyzer* analyzer) {
  if (!injector_) return;
  core::InjectorDevice::InjectionHook hook;
  if (analyzer != nullptr) {
    hook = [analyzer](core::Direction, sim::SimTime when) {
      analyzer->record_injection(when);
    };
  }
  injector_->set_injection_hook(std::move(hook));
}

std::uint64_t InjectorBoard::injections() const {
  if (!injector_) return 0;
  return injector_->fifo_stats(core::Direction::kLeftToRight).injections +
         injector_->fifo_stats(core::Direction::kRightToLeft).injections;
}

std::uint64_t InjectorBoard::symbols_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto* channel : channels_) total += channel->symbols_sent();
  return total;
}

InjectorBoard::State InjectorBoard::capture_state() const {
  State state;
  state.channels.reserve(channels_.size());
  for (const auto* channel : channels_) {
    state.channels.push_back(channel->capture_state());
  }
  if (injector_) {
    state.injector = injector_->capture_state();
    state.uart = uart_->capture_state();
    state.decoder = comm_->decoder().capture_state();
    state.output = comm_->output().capture_state();
    state.control = control_->capture_state();
  }
  return state;
}

void InjectorBoard::restore_state(const State& state) {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->restore_state(state.channels.at(i));
  }
  if (injector_) {
    injector_->restore_state(state.injector);
    uart_->restore_state(state.uart);
    comm_->decoder().restore_state(state.decoder);
    comm_->output().restore_state(state.output);
    control_->restore_state(state.control);
  }
}

}  // namespace hsfi::nftape
