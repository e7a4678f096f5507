// Executes scenario steps against the Fibre Channel protocol objects.
//
// Hook points (all protocol-layer, none touch the symbol stream):
//   kRrdyFlood       -> FcPort::inject_rrdy: `count` R_RDY ordered sets no
//     buffer backs, inflating the peer's BB credit so it overruns our
//     advertised receive buffers (lying flow control);
//   kDupSequence     -> one complete FC-2 sequence built by SequenceBuilder
//     and transmitted twice with the same SEQ_ID/OX_ID — every frame is
//     CRC-valid, the duplication is pure protocol misbehavior;
//   kReorderSequence -> a three-frame sequence with two continuation frames
//     swapped, tripping the reassembler's in-order SEQ_CNT check.
//
// Same lifecycle contract as MyrinetScenarioDriver: arm schedules one
// simulator event per step, firings record injections, disarm neutralizes
// pending events through the shared state block.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fc/port.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace hsfi::scenario {

/// Per-node protocol hooks (node i sits behind fabric-element port i).
struct FcNodeHooks {
  fc::FcPort* port = nullptr;
  std::uint32_t port_id = 0;  ///< the node's 24-bit N_Port identifier
};

class FcScenarioDriver {
 public:
  struct Params {
    /// Sequence chunking, matched to the testbed's frame_chunk so injected
    /// sequences are indistinguishable from workload traffic on the wire.
    std::size_t frame_chunk = 128;
    /// Workload payload shape; duplicated sequences deliberately invert the
    /// fill so the delivered duplicate fails the workload's payload check.
    std::size_t payload_size = 64;
    std::uint8_t payload_fill = 0x5A;
  };

  FcScenarioDriver(sim::Simulator& simulator, std::vector<FcNodeHooks> nodes,
                   Params params);
  ~FcScenarioDriver();

  FcScenarioDriver(const FcScenarioDriver&) = delete;
  FcScenarioDriver& operator=(const FcScenarioDriver&) = delete;

  /// Schedules every FC step of `spec` at now + step.at; firings bump
  /// fired() and are observed as kScenarioStep, one injection each.
  /// `seed` reserves determinism headroom for randomized parameters;
  /// current kinds ignore it.
  void arm(const ScenarioSpec& spec, std::uint64_t seed);

  /// Neutralizes not-yet-fired events. Idempotent.
  void disarm();

  [[nodiscard]] std::uint64_t fired() const noexcept;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace hsfi::scenario
