#include "nftape/testbed.hpp"

#include <string>

namespace hsfi::nftape {

Testbed::Testbed(TestbedConfig config)
    : config_([&config] {
        config.switch_config.character_period = config.character_period;
        config.nic_config.character_period = config.character_period;
        config.injector_config.character_period = config.character_period;
        return config;
      }()),
      switch_(sim_, "sw0", config_.switch_config),
      board_(sim_, config_, config_.character_period, "cable") {
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    auto node = std::make_unique<Node>();
    const auto ends = board_.ends(i);
    node->nic = std::make_unique<myrinet::HostInterface>(
        sim_, "nic" + std::to_string(i), config_.nic_config);
    node->nic->attach(ends.node_rx, ends.node_tx);
    switch_.attach_port(i, ends.element_rx, ends.element_tx);

    host::Host::Config hc;
    hc.id = static_cast<host::HostId>(i + 1);
    hc.eth = eth_of(i);
    hc.mcp_address = mcp_of(i);
    hc.switch_port = static_cast<std::uint8_t>(i);
    hc.switch_ports = switch_.num_ports();
    hc.send_stack_time = config_.send_stack_time;
    hc.boot_offset_span = config_.host_boot_offset_span;
    hc.map_period = config_.map_period;
    hc.map_reply_window = config_.map_reply_window;
    hc.clock = config_.host_clock;
    hc.seed = config_.seed + i;
    node->host = std::make_unique<host::Host>(sim_, *node->nic, hc);
    nodes_.push_back(std::move(node));
  }
}

Testbed::~Testbed() = default;

void Testbed::start() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (i == j) continue;
      nodes_[i]->host->seed_peer(static_cast<host::HostId>(j + 1), eth_of(j));
    }
    nodes_[i]->host->start(sim::microseconds(137 * static_cast<std::int64_t>(i + 1)));
  }
}

void Testbed::settle(sim::Duration span) {
  sim_.run_until(sim_.now() + span);
}

Testbed::State Testbed::capture_state() const {
  State state;
  state.sim = sim_.snapshot();
  state.switch_state = switch_.capture_state();
  state.nodes.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    state.nodes.push_back({node->nic->capture_state(),
                           node->host->capture_state()});
  }
  state.board = board_.capture_state();
  return state;
}

void Testbed::restore_state(const State& state) {
  sim_.restore(state.sim);
  switch_.restore_state(state.switch_state);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->nic->restore_state(state.nodes.at(i).nic);
    nodes_[i]->host->restore_state(state.nodes.at(i).host);
  }
  board_.restore_state(state.board);
}

void Testbed::reset_to_known_good(std::uint64_t seed) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->host->clear_stats();
    if (seed != 0) nodes_[i]->host->reseed(seed + i);
    nodes_[i]->nic->reset_for_campaign();
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (i == j) continue;
      nodes_[i]->host->seed_peer(static_cast<host::HostId>(j + 1), eth_of(j));
    }
  }
  board_.clear_stats();
}

}  // namespace hsfi::nftape
