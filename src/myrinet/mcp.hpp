// The Myrinet Control Program (MCP) and its mapping protocol.
//
// Paper §4.1: "Each MCP on a network is given a unique 64-bit address, and
// the MCP with the highest address is responsible for mapping the network, a
// process which is performed once every second. Network mapping is done by
// first sending a scout message to all other ports of the switch which the
// mapping node connects to. If the mapper does not receive a response from a
// port, it assumes there is another switch..."
//
// This model implements single-switch mapping (the paper's Fig. 10 testbed
// is a single 8-port switch; recursive multi-switch scouting is out of the
// evaluated scope and noted in DESIGN.md):
//   - every map_period the acting controller scouts every switch port,
//   - nodes answer scouts with a reply carrying their 64-bit MCP address and
//     48-bit physical (Ethernet) address,
//   - after reply_window the controller announces the collected map to every
//     responding node; everyone installs it as their routing table.
//
// Controller election is emergent: every MCP initiates mapping, but seeing a
// scout or announcement from a *higher* MCP address suppresses its own
// initiation; within a round or two only the highest-address MCP maps.
//
// Failure behaviors exercised by the paper's campaigns:
//   - a corrupted scout/reply type (0x0005 -> 0x000x) is dropped by the
//     receiver; the silent node "is removed from the network... until the
//     next mapping packet" (§4.3.2);
//   - a reply whose MCP address was corrupted to equal the controller's
//     confuses the controller; it cannot build a consistent map and each
//     attempt produces a differently-damaged one (§4.3.3, Fig. 11);
//   - a reply corrupted to a fresh address is installed as if the machine
//     had been swapped (§4.3.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "myrinet/addr.hpp"
#include "myrinet/host_iface.hpp"
#include "myrinet/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hsfi::myrinet {

/// Mapping-protocol subtypes (first payload byte of a kTypeMapping packet).
enum class MappingOp : std::uint8_t {
  kScout = 0x01,
  kReply = 0x02,
  kAnnounce = 0x03,
};

struct MapEntry {
  std::uint8_t port = 0;
  McpAddress mcp = 0;
  EthAddr eth{};

  friend bool operator==(const MapEntry&, const MapEntry&) = default;
};

/// The network map: one entry per known node, sorted by port.
using NetworkMap = std::vector<MapEntry>;

class Mcp {
 public:
  struct Config {
    McpAddress address = 0;   ///< unique 64-bit MCP address
    EthAddr eth{};            ///< this node's physical address
    std::uint8_t switch_port = 0;
    std::size_t switch_ports = 8;
    sim::Duration map_period = sim::milliseconds(1000);
    sim::Duration reply_window = sim::milliseconds(10);
    /// How long a scout/announce from a higher address suppresses our own
    /// mapping initiation.
    sim::Duration suppress_period = sim::milliseconds(3000);
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t rounds_initiated = 0;
    std::uint64_t maps_announced = 0;
    std::uint64_t confused_rounds = 0;  ///< duplicate-controller detected
    std::uint64_t scouts_answered = 0;
    std::uint64_t maps_installed = 0;
    std::uint64_t replies_collected = 0;
    std::uint64_t replies_late = 0;  ///< reply arrived after the window closed
  };

  Mcp(sim::Simulator& simulator, HostInterface& nic, Config config);

  Mcp(const Mcp&) = delete;
  Mcp& operator=(const Mcp&) = delete;

  /// Begins periodic mapping `phase` from now (stagger nodes to keep the
  /// simulation deterministic but not lock-stepped).
  void start(sim::Duration phase);

  /// Feed a delivered kTypeMapping frame (dispatch done by the host node).
  void on_mapping_frame(const Delivered& frame, sim::SimTime when);

  /// Route (switch hops only; marker excluded) to the node owning `dest`,
  /// from the installed map. nullopt when the node is not in the map —
  /// the paper's "removed from the network".
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> resolve_route(
      const EthAddr& dest) const;
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> resolve_route_port(
      std::uint8_t port) const;

  [[nodiscard]] const NetworkMap& network_map() const noexcept {
    return state_.map;
  }
  [[nodiscard]] bool acting_controller() const noexcept;
  [[nodiscard]] const Stats& stats() const noexcept { return state_.stats; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] sim::SimTime last_map_install() const noexcept {
    return state_.last_install;
  }

  // Observed on the simulator (where "mcp", unit = switch_port): each
  // round it begins, each map it installs, and each round that ends
  // confused (a duplicate controller seen, a damaged map about to be
  // announced — the paper's §4.3.3 mapping disruption).

  /// Rewinds the RNG stream to the state a freshly constructed MCP with
  /// `seed` would have. Campaign runs reset this so a sequence of runs on
  /// one testbed equals the same runs on fresh testbeds.
  void reseed(std::uint64_t seed) noexcept {
    state_.rng = sim::Rng(seed, config_.address);
  }

  /// Snapshot state. The RNG stream is included so a fork resumes the exact
  /// stream position — reseed() then rewinds it per-run, the same call a
  /// cold start makes. Round events (begin/finish) are self-rescheduling
  /// lambdas restored with the simulator queue.
  struct State {
    sim::Rng rng{0};
    NetworkMap map;
    sim::SimTime suppressed_until = -1;
    bool round_open = false;
    NetworkMap collected;
    bool duplicate_controller_seen = false;
    sim::SimTime last_install = -1;
    Stats stats;
  };

  [[nodiscard]] State capture_state() const { return state_; }
  void restore_state(const State& state) { state_ = state; }

 private:
  void begin_round();
  void finish_round();
  void handle_scout(const Delivered& frame);
  void handle_reply(const Delivered& frame);
  void handle_announce(const Delivered& frame);
  void install_map(NetworkMap map);
  void send_mapping(std::uint8_t dest_port, std::vector<std::uint8_t> payload);
  [[nodiscard]] NetworkMap damaged_map(const NetworkMap& collected);

  sim::Simulator& simulator_;
  HostInterface& nic_;
  Config config_;
  State state_;
};

/// Payload builders, exposed so tests and the injector benches can construct
/// and recognize mapping traffic byte-for-byte.
std::vector<std::uint8_t> make_scout_payload(McpAddress mapper,
                                             std::uint8_t mapper_port);
std::vector<std::uint8_t> make_reply_payload(McpAddress replier,
                                             const EthAddr& eth,
                                             std::uint8_t replier_port);
std::vector<std::uint8_t> make_announce_payload(McpAddress mapper,
                                                const NetworkMap& map);

}  // namespace hsfi::myrinet
