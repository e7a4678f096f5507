// The Fibre Channel realization of the campaign testbed.
//
// Same shape as the Fig. 10 Myrinet bed — N nodes, a central fabric
// element, the injector spliced into one node's link, the RS-232 command
// plane — but the endpoints are FC N_Ports with BB-credit flow control and
// the workload is SCSI-like: fixed-fill payloads split into multi-frame
// FC-2 sequences, reassembled and integrity-checked at the receiver. The
// board's FCPHY made exactly this swap possible in hardware ("a Myrinet
// SAN link or a Fibre Channel link", paper §3); here the same
// CampaignRunner/orchestrator/adaptive stack drives either medium.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/command_plane.hpp"
#include "core/device.hpp"
#include "fc/fabric.hpp"
#include "fc/port.hpp"
#include "fc/sequence.hpp"
#include "nftape/board.hpp"
#include "nftape/fabric.hpp"
#include "scenario/driver_fc.hpp"
#include "sim/simulator.hpp"

namespace hsfi::nftape {

class FcFabric final : public Fabric {
 public:
  explicit FcFabric(TestbedConfig config);
  ~FcFabric() override;

  FcFabric(const FcFabric&) = delete;
  FcFabric& operator=(const FcFabric&) = delete;

  /// Deterministic addressing: node i is fabric domain i+1 with N_Port
  /// identifier (i+1)<<16 | 1 (domain byte routes, the low bits name the
  /// port within it).
  [[nodiscard]] static std::uint32_t port_id_of(std::size_t node) noexcept {
    return (static_cast<std::uint32_t>(node + 1) << 16) | 1u;
  }

  [[nodiscard]] fc::FcPort& node_port(std::size_t i);
  [[nodiscard]] fc::FcFabric& fabric_element() noexcept { return *element_; }
  /// The cabling and the spliced injector board.
  [[nodiscard]] InjectorBoard& board() noexcept { return board_; }
  /// The spliced injector (with_injector must be set).
  [[nodiscard]] core::InjectorDevice& injector() { return board_.injector(); }
  /// The external system's serial handle to the injector.
  [[nodiscard]] core::SerialControlHost& control() { return board_.control(); }
  [[nodiscard]] const TestbedConfig& config() const noexcept { return config_; }

  // Fabric interface.
  [[nodiscard]] Medium medium() const noexcept override { return Medium::kFc; }
  [[nodiscard]] sim::Simulator& sim() noexcept override { return sim_; }
  [[nodiscard]] std::uint64_t base_seed() const noexcept override {
    return config_.seed;
  }
  void start() override;
  void settle(sim::Duration span) override;
  void reset_to_known_good(std::uint64_t seed) override;
  void program_fault(core::Direction dir, const core::InjectorConfig& config,
                     bool via_serial) override {
    board_.program_fault(dir, config, via_serial);
  }
  void disarm_faults(bool via_serial) override {
    board_.disarm_faults(via_serial);
  }
  void start_workload(const WorkloadSpec& workload, std::uint64_t seed,
                      analysis::ManifestationAnalyzer& analyzer) override;
  void stop_workload() override;
  void clear_workload() override;
  void arm_scenario(const scenario::ScenarioSpec& spec, std::uint64_t seed,
                    analysis::ManifestationAnalyzer& analyzer) override;
  void disarm_scenario() override;
  [[nodiscard]] FabricCounters snapshot() const override;
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept override {
    return board_.symbols_sent();
  }
  [[nodiscard]] sim::Duration recovery_time() const override;
  [[nodiscard]] std::unique_ptr<FabricSnapshot> capture_snapshot() override;
  void restore_snapshot(const FabricSnapshot& snap) override;

 private:
  class SequenceFlood;
  struct Node {
    std::unique_ptr<fc::FcPort> port;
    /// Per-run receive side (built by start_workload).
    std::unique_ptr<fc::SequenceReassembler> reassembler;
    std::uint64_t delivered = 0;  ///< intact sequences this workload
  };

  TestbedConfig config_;
  sim::Simulator sim_;
  InjectorBoard board_;
  std::unique_ptr<fc::FcFabric> element_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<SequenceFlood>> floods_;
  /// Payload shape of the current workload, so injected scenario sequences
  /// can match (or deliberately mismatch) what the reassembler checks.
  WorkloadSpec workload_;
  std::unique_ptr<scenario::FcScenarioDriver> scenario_driver_;
};

}  // namespace hsfi::nftape
