// A Fibre Channel fabric element (FC switch), class-3 semantics.
//
// The paper's board carries an FCPHY specifically so the injector can sit
// in Fibre Channel topologies; a fabric element makes those topologies
// buildable: N ports, each a full BB-credit link endpoint, store-and-
// forward by destination port identifier. Routing is by D_ID domain (the
// top byte of the 24-bit address), the way FC fabrics partition address
// space; frames with no route are discarded, which is exactly class-3
// behavior ("datagram" class, no acknowledgements).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fc/port.hpp"
#include "link/channel.hpp"
#include "sim/simulator.hpp"

namespace hsfi::fc {

class FcFabric {
 public:
  struct Config {
    std::size_t num_ports = 8;
    FcPort::Config port = {};
  };

  struct Stats {
    std::uint64_t frames_forwarded = 0;
    std::uint64_t frames_discarded = 0;  ///< no route for D_ID
  };

  FcFabric(sim::Simulator& simulator, std::string name, Config config);

  FcFabric(const FcFabric&) = delete;
  FcFabric& operator=(const FcFabric&) = delete;

  /// Connects fabric port `port`: `rx` carries symbols in, `tx` out.
  void attach_port(std::size_t port, link::Channel& rx, link::Channel& tx);

  /// Routes destination domain `domain` (d_id >> 16) out of `port`.
  void set_route(std::uint8_t domain, std::size_t port);

  // Every class-3 silent discard (no route for the D_ID) is observed as
  // kFcDiscard — the misroute an injection campaign correlates against.

  /// Campaign reset: fabric statistics plus every port's state (stats,
  /// credits, queues) back to fresh-construction values.
  void reset_for_campaign();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FcPort& port(std::size_t i) const { return *ports_.at(i); }
  [[nodiscard]] FcPort& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Snapshot state: per-port state plus forwarding counters. Routes are
  /// topology (static after construction) and are not captured.
  struct State {
    std::vector<FcPort::State> ports;
    Stats stats;
  };

  [[nodiscard]] State capture_state() const {
    State state;
    state.ports.reserve(ports_.size());
    for (const auto& p : ports_) state.ports.push_back(p->capture_state());
    state.stats = stats_;
    return state;
  }
  void restore_state(const State& state) {
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      ports_[i]->restore_state(state.ports[i]);
    }
    stats_ = state.stats;
  }

 private:
  void forward(FcFrame frame, sim::SimTime when);

  sim::Simulator& simulator_;
  std::string name_;
  std::vector<std::unique_ptr<FcPort>> ports_;
  std::map<std::uint8_t, std::size_t> routes_;
  Stats stats_;
};

}  // namespace hsfi::fc
