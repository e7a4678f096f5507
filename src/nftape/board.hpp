// The injector board and the cables it is spliced into, shared by both
// media.
//
// The paper's injector is one board — the FPGA datapath, its off-chip UART
// and the RS-232 control host — cut into "a Myrinet SAN link or a Fibre
// Channel link" (§3, Figs. 1 and 4). Both testbed realizations lay one
// cable per node toward the network element and, on the spliced node, a
// second segment with the board between the two. This class owns that
// cabling and the board; the Myrinet Testbed and the FC fabric only attach
// their endpoints to the cable ends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/command_plane.hpp"
#include "core/device.hpp"
#include "core/uart.hpp"
#include "link/channel.hpp"
#include "sim/simulator.hpp"

namespace hsfi::nftape {

struct TestbedConfig;

class InjectorBoard {
 public:
  /// Lays node i's cable "<cable_prefix><i>" and, when `config` has the
  /// injector, the spliced node's second segment "<cable_prefix><i>b" with
  /// the device "fi0" between them; then the UART, the command handler and
  /// the control host. Every segment runs at `character_period`.
  InjectorBoard(sim::Simulator& simulator, const TestbedConfig& config,
                sim::Duration character_period,
                const std::string& cable_prefix);
  ~InjectorBoard();

  InjectorBoard(const InjectorBoard&) = delete;
  InjectorBoard& operator=(const InjectorBoard&) = delete;

  /// One node's cable ends: the node attaches to the A end of its cable,
  /// the element's port to the B end of the segment that reaches it.
  struct Ends {
    link::Channel& node_rx;
    link::Channel& node_tx;
    link::Channel& element_rx;
    link::Channel& element_tx;
  };
  [[nodiscard]] Ends ends(std::size_t node);

  /// The spliced injector (the config must have it).
  [[nodiscard]] core::InjectorDevice& injector() { return *injector_; }
  /// The external system's serial handle to the injector.
  [[nodiscard]] core::SerialControlHost& control() { return *control_; }
  /// The FPGA-side command decoder behind the serial link.
  [[nodiscard]] const core::CommandDecoder& decoder() const {
    return comm_->decoder();
  }

  /// See Fabric::program_fault and Fabric::disarm_faults.
  void program_fault(core::Direction dir, const core::InjectorConfig& config,
                     bool via_serial);
  void disarm_faults(bool via_serial);

  /// Injections fired by both taps since the last clear_stats() (0 without
  /// an injector).
  [[nodiscard]] std::uint64_t injections() const;
  void clear_stats() {
    if (injector_) injector_->clear_stats();
  }

  /// Total symbols transmitted across every segment, both directions.
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept;

  /// Every segment's channel states and the board's (the board entries are
  /// meaningful only with an injector).
  struct State {
    std::vector<link::Channel::State> channels;
    core::InjectorDevice::State injector;
    core::Uart::State uart;
    core::CommandDecoder::State decoder;
    core::OutputGenerator::State output;
    core::SerialControlHost::State control;
  };
  [[nodiscard]] State capture_state() const;
  void restore_state(const State& state);

 private:
  struct Cable {
    std::unique_ptr<link::DuplexLink> first;   ///< from the node
    std::unique_ptr<link::DuplexLink> second;  ///< spliced node only
  };

  std::vector<Cable> cables_;
  /// Both channels of every segment, in cable order.
  std::vector<link::Channel*> channels_;
  std::unique_ptr<core::InjectorDevice> injector_;
  std::unique_ptr<core::Uart> uart_;
  std::unique_ptr<core::CommHandler> comm_;
  std::unique_ptr<core::SerialControlHost> control_;
};

}  // namespace hsfi::nftape
