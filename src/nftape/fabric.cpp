#include "nftape/fabric.hpp"

#include <algorithm>
#include <utility>

#include "sim/rng.hpp"

namespace hsfi::nftape {

namespace {

using analysis::Manifestation;

Manifestation classify(myrinet::HostInterface::RxError e) {
  switch (e) {
    case myrinet::HostInterface::RxError::kCrcError:
      return Manifestation::kCrcDropped;
    case myrinet::HostInterface::RxError::kMarkerError:
      return Manifestation::kMarkerError;
    case myrinet::HostInterface::RxError::kTooShort:
    case myrinet::HostInterface::RxError::kRingOverflow:
      return Manifestation::kDroppedOther;
  }
  return Manifestation::kDroppedOther;
}

Manifestation classify(host::Host::DropReason r) {
  switch (r) {
    case host::Host::DropReason::kMisaddressed:
      return Manifestation::kMisrouted;
    // Send-side resolution failures mean the routing/address state itself
    // is damaged — the paper's "removed from the network".
    case host::Host::DropReason::kUnknownPeer:
    case host::Host::DropReason::kUnroutable:
      return Manifestation::kMappingDisruption;
    case host::Host::DropReason::kBadChecksum:
    case host::Host::DropReason::kBadLength:
    case host::Host::DropReason::kMalformed:
    case host::Host::DropReason::kUnknownType:
    case host::Host::DropReason::kUnboundPort:
      return Manifestation::kDroppedOther;
  }
  return Manifestation::kDroppedOther;
}

Manifestation classify(myrinet::Switch::PortEvent e) {
  switch (e) {
    case myrinet::Switch::PortEvent::kSlackOverflow:
      return Manifestation::kDroppedOther;
    case myrinet::Switch::PortEvent::kLongTimeout:
      return Manifestation::kTimeout;
    case myrinet::Switch::PortEvent::kInvalidRoute:
      return Manifestation::kMisrouted;
  }
  return Manifestation::kDroppedOther;
}

}  // namespace

bool payload_intact(const WorkloadSpec& workload,
                    std::span<const std::uint8_t> payload) {
  return payload.size() == workload.payload_size &&
         std::all_of(payload.begin(), payload.end(),
                     [fill = workload.payload_fill](std::uint8_t b) {
                       return b == fill;
                     });
}

MyrinetFabric::MyrinetFabric(TestbedConfig config)
    : owned_(std::make_unique<Testbed>(std::move(config))), bed_(*owned_) {}

MyrinetFabric::MyrinetFabric(Testbed& bed) : bed_(bed) {}

MyrinetFabric::~MyrinetFabric() = default;

std::uint64_t MyrinetFabric::base_seed() const noexcept {
  return bed_.config().seed;
}

void MyrinetFabric::attach_monitors(analysis::ManifestationAnalyzer& analyzer) {
  bed_.board().report_injections(&analyzer);
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    const auto src = static_cast<std::uint32_t>(i);
    bed_.nic(i).on_rx_error([&analyzer, src](myrinet::HostInterface::RxError e,
                                             sim::SimTime when) {
      analyzer.record_observation(when, classify(e), src);
    });
    bed_.host(i).on_drop(
        [&analyzer, src](host::Host::DropReason reason, sim::SimTime when) {
          analyzer.record_observation(when, classify(reason), 100 + src);
        });
    bed_.host(i).mcp().on_confused_round([&analyzer, src](sim::SimTime when) {
      analyzer.record_observation(when, Manifestation::kMappingDisruption,
                                  300 + src);
    });
  }
  bed_.network_switch().on_port_event(
      [&analyzer](std::size_t port, myrinet::Switch::PortEvent e,
                  sim::SimTime when) {
        analyzer.record_observation(when, classify(e),
                                    200 + static_cast<std::uint32_t>(port));
      });
}

void MyrinetFabric::detach_monitors() {
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    bed_.nic(i).on_rx_error(nullptr);
    bed_.host(i).on_drop(nullptr);
    bed_.host(i).mcp().on_confused_round(nullptr);
  }
  bed_.network_switch().on_port_event(nullptr);
  bed_.board().report_injections(nullptr);
}

void MyrinetFabric::start_workload(const WorkloadSpec& workload,
                                   std::uint64_t seed,
                                   analysis::ManifestationAnalyzer& analyzer) {
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    sinks_.push_back(
        std::make_unique<host::UdpSink>(bed_.host(i), workload.port));
    const auto src = 400 + static_cast<std::uint32_t>(i);
    sinks_.back()->on_receive([&analyzer, src, workload](
                                  host::HostId, const host::UdpDatagram& dgram,
                                  sim::SimTime when) {
      if (!payload_intact(workload, dgram.payload)) {
        analyzer.record_observation(
            when, Manifestation::kPayloadCorruptedDelivered, src);
      }
    });
  }
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    for (std::size_t j = 0; j < bed_.node_count(); ++j) {
      if (i == j) continue;
      if (!workload.all_to_all && !(i < 2 && j < 2)) continue;
      host::UdpFlood::Config fc;
      fc.target = static_cast<host::HostId>(j + 1);
      fc.dst_port = workload.port;
      fc.src_port = static_cast<std::uint16_t>(3000 + i * 16 + j);
      fc.payload_size = workload.payload_size;
      fc.fill = workload.payload_fill;
      fc.interval = workload.udp_interval;
      fc.burst_size = workload.burst_size;
      fc.jitter = workload.jitter;
      fc.seed = sim::derive_seed(seed, 100 + i * 16 + j);
      floods_.push_back(
          std::make_unique<host::UdpFlood>(bed_.sim(), bed_.host(i), fc));
    }
  }
  for (auto& f : floods_) f->start();
}

void MyrinetFabric::stop_workload() {
  for (auto& f : floods_) f->stop();
}

void MyrinetFabric::clear_workload() {
  floods_.clear();
  sinks_.clear();
}

void MyrinetFabric::arm_scenario(const scenario::ScenarioSpec& spec,
                                 std::uint64_t seed,
                                 analysis::ManifestationAnalyzer& analyzer) {
  std::vector<scenario::MyrinetNodeHooks> hooks;
  hooks.reserve(bed_.node_count());
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    hooks.push_back({&bed_.nic(i), &bed_.host(i).mcp()});
  }
  scenario_driver_ = std::make_unique<scenario::MyrinetScenarioDriver>(
      bed_.sim(), bed_.network_switch(), std::move(hooks));
  scenario_driver_->arm(spec, seed, analyzer);
}

void MyrinetFabric::disarm_scenario() {
  if (scenario_driver_) scenario_driver_->disarm();
}

FabricCounters MyrinetFabric::snapshot() const {
  FabricCounters s;
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    const auto& hs = bed_.host(i).stats();
    s.messages_sent += hs.udp_sent;
    s.messages_received += hs.udp_delivered;
    s.checksum_drops += hs.drop_bad_checksum + hs.drop_bad_length;
    s.misaddressed += hs.drop_misaddressed;
    s.unroutable += hs.drop_unroutable + hs.drop_unknown_peer;
    s.unknown_type += hs.drop_unknown_type;
    const auto& ns = bed_.nic(i).stats();
    s.crc_errors += ns.crc_errors;
    s.marker_errors += ns.marker_errors;
    s.ring_overflows += ns.ring_overflows;
    s.tx_drops += ns.tx_queue_drops;
  }
  auto& sw = bed_.network_switch();
  for (std::size_t p = 0; p < sw.num_ports(); ++p) {
    const auto ps = sw.port_stats(p);
    s.slack_overflow += ps.slack_overflow;
    s.long_timeouts += ps.long_timeouts;
  }
  s.injections += bed_.board().injections();
  if (scenario_driver_) {
    s.scenario_steps = scenario_driver_->fired();
    s.injections += s.scenario_steps;
  }
  return s;
}

sim::Duration MyrinetFabric::recovery_time() const {
  return bed_.config().map_period + bed_.config().map_reply_window;
}

namespace {
/// The Myrinet fabric's snapshot payload: the whole settled Testbed.
struct MyrinetSnapshot final : FabricSnapshot {
  Testbed::State state;
};
}  // namespace

std::unique_ptr<FabricSnapshot> MyrinetFabric::capture_snapshot() {
  auto snap = std::make_unique<MyrinetSnapshot>();
  snap->state = bed_.capture_state();
  return snap;
}

void MyrinetFabric::restore_snapshot(const FabricSnapshot& snap) {
  bed_.restore_state(static_cast<const MyrinetSnapshot&>(snap).state);
}

}  // namespace hsfi::nftape
