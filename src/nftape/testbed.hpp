// The Fig. 10 testbed: hosts, an 8-port Myrinet switch, and the fault
// injector spliced into one host's link, with its RS-232 control path.
//
// "Fault injections were performed on a three-node network consisting of
// one PC... two SUN UltraSPARC workstations..., and an 8-port Myrinet
// switch. Each node had a 1.2+1.2 Gbps host interface card installed."
// (paper §4.1). The injector sits between the switch and one node, exactly
// where the paper's photographs place it, and is configured at run time
// over the simulated serial link — the role NFTAPE's control host played.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/command_plane.hpp"
#include "core/device.hpp"
#include "host/node.hpp"
#include "myrinet/host_iface.hpp"
#include "myrinet/switch.hpp"
#include "nftape/board.hpp"
#include "sim/simulator.hpp"

namespace hsfi::nftape {

/// Fibre Channel link tuning, consumed by `nftape::FcFabric` when the same
/// TestbedConfig is realized over FC instead of Myrinet (the medium-neutral
/// fields — nodes, injected_node, with_injector, cable_delay, map_period,
/// map_reply_window, injector_config, seed — keep their meaning there).
struct FcTuning {
  /// 1.0625 Gb/s: one 10-bit character every ~9.4 ns.
  sim::Duration character_period = sim::picoseconds(9'412);
  std::size_t bb_credit = 8;   ///< credits each end holds toward its peer
  std::size_t rx_buffers = 8;  ///< receive buffers each end advertises
  sim::Duration rx_processing_time = sim::microseconds(2);
  /// See fc::FcPort::Config::credit_recovery_timeout — without it a single
  /// corrupted R_RDY wedges the spliced link for the rest of the campaign.
  sim::Duration credit_recovery_timeout = sim::milliseconds(1);
  /// Payload bytes per sequence frame; kept smaller than the workload
  /// payload so every message travels as a multi-frame FC-2 sequence (the
  /// failure surface a lost middle frame exposes).
  std::size_t frame_chunk = 128;

  bool operator==(const FcTuning&) const = default;
};

struct TestbedConfig {
  std::size_t nodes = 3;
  /// Which node's link carries the injector (Fig. 10 splices one link).
  std::size_t injected_node = 0;
  bool with_injector = true;

  /// 80 MB/s character period; the paper quotes its timeout arithmetic at
  /// this rate. (The cards are 1.28 Gb/s full duplex = 160 MB/s; use
  /// character_period_for_mbytes(160) to run the links at card speed.)
  sim::Duration character_period = sim::picoseconds(12'500);
  sim::Duration cable_delay = sim::nanoseconds(5);  ///< per segment, ~1 m

  myrinet::Switch::Config switch_config = {};
  myrinet::HostInterface::Config nic_config = {};
  core::InjectorDevice::Config injector_config = {};

  sim::Duration send_stack_time = sim::microseconds(5);
  /// See host::Host::Config::boot_offset_span (Table 2 noise model).
  sim::Duration host_boot_offset_span = 0;
  sim::Duration map_period = sim::milliseconds(1000);
  sim::Duration map_reply_window = sim::milliseconds(10);
  host::HostClock::Params host_clock = {};
  /// FC realization of this config (ignored by the Myrinet `Testbed`).
  FcTuning fc = {};
  std::uint64_t seed = 1;

  /// Memberwise equality — the orchestrator's snapshot cache compares
  /// seed-normalized configs to decide whether two runs share a cell (a
  /// memcmp would read uninitialized padding).
  bool operator==(const TestbedConfig&) const = default;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Deterministic per-node addressing: node i lives on switch port i with
  /// physical address 00:A0:CC:00:00:<i+1> and MCP address 0x2000 + i*0x10
  /// (so the highest-numbered node wins the mapper election).
  [[nodiscard]] static myrinet::EthAddr eth_of(std::size_t node) {
    return myrinet::EthAddr::from_u64(0x00A0CC000000ULL + node + 1);
  }
  [[nodiscard]] static myrinet::McpAddress mcp_of(std::size_t node) {
    return 0x2000 + static_cast<myrinet::McpAddress>(node) * 0x10;
  }

  /// Seeds every host's peer cache (the "known good state") and starts MCP
  /// mapping with staggered phases.
  void start();

  /// Runs the simulation forward by `span`.
  void settle(sim::Duration span);

  /// Clears host/NIC/injector statistics (between campaign runs) and
  /// re-seeds the peer caches. `seed` != 0 also rewinds every host's RNG
  /// stream to the state a fresh testbed built with that seed would have,
  /// so repeated runs on one bed match independent runs on fresh beds
  /// (host i gets stream seed + i, as in the constructor).
  void reset_to_known_good(std::uint64_t seed = 0);

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] host::Host& host(std::size_t i) { return *nodes_.at(i)->host; }
  [[nodiscard]] const host::Host& host(std::size_t i) const {
    return *nodes_.at(i)->host;
  }
  [[nodiscard]] myrinet::HostInterface& nic(std::size_t i) {
    return *nodes_.at(i)->nic;
  }
  [[nodiscard]] const myrinet::HostInterface& nic(std::size_t i) const {
    return *nodes_.at(i)->nic;
  }
  [[nodiscard]] myrinet::Switch& network_switch() noexcept { return switch_; }
  [[nodiscard]] const myrinet::Switch& network_switch() const noexcept {
    return switch_;
  }

  /// The cabling and the spliced injector board.
  [[nodiscard]] InjectorBoard& board() noexcept { return board_; }
  [[nodiscard]] const InjectorBoard& board() const noexcept { return board_; }
  /// The spliced injector (with_injector must be set).
  [[nodiscard]] core::InjectorDevice& injector() { return board_.injector(); }
  /// The external system's serial handle to the injector.
  [[nodiscard]] core::SerialControlHost& control() { return board_.control(); }
  [[nodiscard]] const TestbedConfig& config() const noexcept { return config_; }

  /// Total symbols transmitted across every link segment, both directions —
  /// the datapath-work measure the bench harness reports next to kernel
  /// events (an events/s gain with flat symbols/s is scheduling overhead
  /// removed; both rising together is more traffic simulated).
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept {
    return board_.symbols_sent();
  }

  /// Full mutable state of the bed: the simulator event queue, the switch,
  /// every node's NIC and host, and the cabling with the board. Capture
  /// only at quiescent settle boundaries (after start() + settle) —
  /// pending serial commands or workload objects are outside the contract.
  /// Restore rewinds a bed of identical construction parameters; EventIds
  /// stay valid because the simulator queue's slots and generations are
  /// restored verbatim into the same object graph.
  struct State {
    struct NodeState {
      myrinet::HostInterface::State nic;
      host::Host::State host;
    };
    sim::Simulator::Snapshot sim;
    myrinet::Switch::State switch_state;
    std::vector<NodeState> nodes;
    InjectorBoard::State board;
  };

  [[nodiscard]] State capture_state() const;
  void restore_state(const State& state);

 private:
  struct Node {
    std::unique_ptr<myrinet::HostInterface> nic;
    std::unique_ptr<host::Host> host;
  };

  TestbedConfig config_;
  sim::Simulator sim_;
  myrinet::Switch switch_;
  InjectorBoard board_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace hsfi::nftape
