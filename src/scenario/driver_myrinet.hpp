// Executes scenario steps against the Myrinet protocol objects.
//
// Hook points (all protocol-layer, none touch the symbol stream):
//   kForgedAnnounce / kStaleAnnounce -> Mcp::on_mapping_frame with a
//     well-formed kTypeMapping announce built by make_announce_payload,
//     claiming a phantom MCP address higher than any real node's;
//   kLyingGo / kLyingStop            -> Switch::inject_flow, emitting a
//     flow-control symbol that contradicts the slack buffer's true state;
//   kTruncateFrames                  -> HostInterface tx mutator: the next
//     `count` queued packets lose tail payload bytes and get their trailing
//     CRC-8 recomputed, so the shortened frame is valid on the wire.
//
// The driver schedules one simulator event per step at window_begin +
// step.at. Arm/disarm bracket one campaign window; events that outlive a
// disarm (steps authored past the window) hold only the shared state block
// and become no-ops, so a destroyed driver never dangles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "myrinet/host_iface.hpp"
#include "myrinet/mcp.hpp"
#include "myrinet/switch.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace hsfi::scenario {

/// Per-node protocol hooks (node i sits on switch port i).
struct MyrinetNodeHooks {
  myrinet::HostInterface* nic = nullptr;
  myrinet::Mcp* mcp = nullptr;
};

class MyrinetScenarioDriver {
 public:
  MyrinetScenarioDriver(sim::Simulator& simulator, myrinet::Switch& network_switch,
                        std::vector<MyrinetNodeHooks> nodes);
  ~MyrinetScenarioDriver();

  MyrinetScenarioDriver(const MyrinetScenarioDriver&) = delete;
  MyrinetScenarioDriver& operator=(const MyrinetScenarioDriver&) = delete;

  /// Installs the tx-mutator hooks and schedules every Myrinet step of
  /// `spec` at now + step.at. Each firing bumps fired() and is observed as
  /// kScenarioStep (unit: the step's node), which the manifestation
  /// analyzer counts as an injection, so its breakdown reconciles against
  /// the campaign's injection count. `seed` reserves determinism
  /// headroom for randomized step parameters; current kinds are fully
  /// deterministic and ignore it.
  void arm(const ScenarioSpec& spec, std::uint64_t seed);

  /// Uninstalls the hooks and neutralizes not-yet-fired events. Idempotent.
  void disarm();

  [[nodiscard]] std::uint64_t fired() const noexcept;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace hsfi::scenario
