// A host node: the stack running on each testbed machine (paper Fig. 10's
// Linux PC and the two UltraSPARC workstations).
//
// Composition per node: a Myrinet host interface (NIC), the MCP (mapping
// participant), an address-learning cache binding small host ids to 48-bit
// physical addresses, and a UDP layer with the one's-complement checksum.
//
// Behaviors the campaigns rely on:
//   - "the node drops incoming packets that are misaddressed" — both the
//     physical-address and the host-id checks (§4.3.3);
//   - peers learn a node's physical address from the source field of
//     frames it sends, so corrupting that field in flight makes the node
//     "unreachable to all Ethernet-based network traffic" while Myrinet
//     mapping — keyed by relative ports — keeps working (§4.3.3);
//   - unrecognized packet types are dropped without touching network state
//     (§4.3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "host/clock.hpp"
#include "host/frame.hpp"
#include "host/udp.hpp"
#include "myrinet/host_iface.hpp"
#include "myrinet/mcp.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hsfi::host {

class Host {
 public:
  struct Config {
    HostId id = 0;
    myrinet::EthAddr eth{};
    myrinet::McpAddress mcp_address = 0;
    std::uint8_t switch_port = 0;
    std::size_t switch_ports = 8;
    /// Host-side cost to build and hand one datagram to the NIC.
    sim::Duration send_stack_time = sim::microseconds(5);
    /// Per-boot systematic offset added to every stack traversal, drawn
    /// uniformly from [0, boot_offset_span) at construction. Models the
    /// boot-dependent interrupt/timer alignment that buries the injector's
    /// ~250 ns latency in Table 2 ("the actual latency interval is getting
    /// lost in the granularity caused by the computer's interrupt
    /// handler").
    sim::Duration boot_offset_span = 0;
    sim::Duration map_period = sim::milliseconds(1000);
    sim::Duration map_reply_window = sim::milliseconds(10);
    HostClock::Params clock = {};
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t udp_sent = 0;         ///< accepted into the stack
    std::uint64_t udp_delivered = 0;    ///< handed to a bound socket
    std::uint64_t echo_replies = 0;
    std::uint64_t drop_unknown_peer = 0;   ///< no address for that host id
    std::uint64_t drop_unroutable = 0;     ///< not in the Myrinet map
    std::uint64_t drop_misaddressed = 0;   ///< wrong dst address or id
    std::uint64_t drop_bad_checksum = 0;
    std::uint64_t drop_bad_length = 0;
    std::uint64_t drop_malformed = 0;
    std::uint64_t drop_unknown_type = 0;   ///< reserved/corrupted packet type
    std::uint64_t drop_unbound_port = 0;
    std::uint64_t nic_refused = 0;         ///< NIC send queue full
  };

  using UdpHandler =
      std::function<void(HostId src, const UdpDatagram&, sim::SimTime when)>;

  /// Why the stack dropped a packet (send- or receive-side), mirroring the
  /// Stats counters one-for-one; the hook adds the timestamp the counters
  /// lack so the manifestation analyzer can correlate drops to firings.
  enum class DropReason : std::uint8_t {
    kUnknownPeer = 0,  ///< send: no address for that host id
    kUnroutable,       ///< send: not in the Myrinet map
    kMisaddressed,     ///< receive: wrong dst address or id
    kBadChecksum,
    kBadLength,
    kMalformed,
    kUnknownType,      ///< reserved/corrupted packet type
    kUnboundPort,
  };
  using DropHandler = std::function<void(DropReason reason, sim::SimTime when)>;

  Host(sim::Simulator& simulator, myrinet::HostInterface& nic, Config config);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Begins MCP mapping participation.
  void start(sim::Duration mapping_phase);

  /// Seeds the address cache (the campaign's "known good state").
  void seed_peer(HostId id, const myrinet::EthAddr& eth);
  [[nodiscard]] std::optional<myrinet::EthAddr> peer(HostId id) const;

  void bind(std::uint16_t port, UdpHandler handler);
  void on_drop(DropHandler handler) { drop_ = std::move(handler); }
  /// Answers echo datagrams (UDP port 7) by returning the payload — the
  /// ping responder.
  void enable_echo();

  /// Sends a datagram to `dest`. Returns false when it is dropped before
  /// reaching the wire (unknown peer, unroutable, NIC queue full).
  bool send_udp(HostId dest, UdpDatagram dgram);

  [[nodiscard]] const Stats& stats() const noexcept { return fields_.stats; }
  void clear_stats() noexcept { fields_.stats = Stats{}; }

  /// Rewinds every per-host seed-derived stream to the state a freshly
  /// constructed host with `seed` would have: the MCP's RNG (Mcp::reseed),
  /// the host clock phase, and the per-boot stack offset. The constructor
  /// seeds through this same call, so it is a no-op on a cold-started
  /// testbed and seed-corrects a forked one: snapshot/fork campaigns stay
  /// byte-identical to cold starts even with a nonzero boot_offset_span or
  /// clock tick.
  void reseed(std::uint64_t seed) noexcept {
    mcp_->reseed(seed);
    fields_.clock = HostClock(config_.clock, seed);
    fields_.boot_offset = 0;
    if (config_.boot_offset_span > 0) {
      sim::Rng rng(seed, 0xb007ULL);
      fields_.boot_offset = static_cast<sim::Duration>(
          rng.range(0, config_.boot_offset_span - 1));
    }
  }

  /// The host's own mutable fields, held as one member. Bound sockets are
  /// included (their handlers reference this host or its workload driver,
  /// both of which outlive a snapshot within a campaign); the drop hook is
  /// per-run monitor wiring and is deliberately not.
  struct Fields {
    HostClock clock{HostClock::Params{}, 0};
    sim::Duration boot_offset = 0;
    std::map<HostId, myrinet::EthAddr> peers;
    std::map<std::uint16_t, UdpHandler> sockets;
    sim::SimTime stack_free_at = 0;
    Stats stats;
  };

  /// Snapshot state for fabric forks: the MCP's state plus the host's own
  /// fields.
  struct State {
    myrinet::Mcp::State mcp;
    Fields fields;
  };

  [[nodiscard]] State capture_state() const {
    return State{mcp_->capture_state(), fields_};
  }
  void restore_state(const State& state) {
    mcp_->restore_state(state.mcp);
    fields_ = state.fields;
  }

  [[nodiscard]] myrinet::Mcp& mcp() noexcept { return *mcp_; }
  [[nodiscard]] const myrinet::Mcp& mcp() const noexcept { return *mcp_; }
  [[nodiscard]] const HostClock& clock() const noexcept {
    return fields_.clock;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] myrinet::HostInterface& nic() noexcept { return nic_; }

 private:
  void on_deliver(myrinet::Delivered frame, sim::SimTime when);
  void on_data_frame(const myrinet::Delivered& frame, sim::SimTime when);
  void note_drop(DropReason reason, sim::SimTime when) {
    if (drop_) drop_(reason, when);
  }

  sim::Simulator& simulator_;
  myrinet::HostInterface& nic_;
  Config config_;
  std::unique_ptr<myrinet::Mcp> mcp_;
  Fields fields_;
  DropHandler drop_;
};

}  // namespace hsfi::host
