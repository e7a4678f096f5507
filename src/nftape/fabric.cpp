#include "nftape/fabric.hpp"

#include <algorithm>
#include <utility>

#include "sim/rng.hpp"

namespace hsfi::nftape {

void Fabric::attach_monitors(analysis::ManifestationAnalyzer& analyzer) {
  if (monitor_ != nullptr) sim().unsubscribe(*monitor_);
  sim().subscribe(analyzer);
  monitor_ = &analyzer;
}

void Fabric::detach_monitors() {
  if (monitor_ != nullptr) sim().unsubscribe(*monitor_);
  monitor_ = nullptr;
}

std::vector<Flow> flow_plan(std::size_t nodes, std::uint64_t seed) {
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < nodes; ++j) {
      if (i == j) continue;
      flows.push_back({i, j, sim::derive_seed(seed, 100 + i * 16 + j),
                       static_cast<std::uint16_t>(3000 + i * 16 + j)});
    }
  }
  return flows;
}

bool payload_intact(std::size_t payload_size,
                    std::span<const std::uint8_t> payload) {
  return payload.size() == payload_size &&
         std::all_of(payload.begin(), payload.end(),
                     [](std::uint8_t b) { return b == host::kPayloadFill; });
}

MyrinetFabric::MyrinetFabric(TestbedConfig config) : bed_(std::move(config)) {}

std::uint64_t MyrinetFabric::base_seed() const noexcept {
  return bed_.config().seed;
}

void MyrinetFabric::start_workload(const WorkloadSpec& workload,
                                   std::uint64_t seed,
                                   analysis::ManifestationAnalyzer&) {
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    sinks_.push_back(
        std::make_unique<host::UdpSink>(bed_.host(i), host::kWorkloadPort));
    sinks_.back()->on_receive(
        [&simulator = bed_.sim(), node = static_cast<std::uint32_t>(i),
         size = workload.payload_size](host::HostId,
                                       const host::UdpDatagram& dgram,
                                       sim::SimTime when) {
          if (!payload_intact(size, dgram.payload)) {
            simulator.observe(when, sim::Observed::kPayloadCorrupted, "sink",
                              node);
          }
        });
  }
  for (const Flow& flow : flow_plan(bed_.node_count(), seed)) {
    host::UdpFlood::Config fc;
    fc.target = static_cast<host::HostId>(flow.dst + 1);
    fc.src_port = flow.stream;
    fc.payload_size = workload.payload_size;
    fc.interval = workload.udp_interval;
    fc.burst_size = workload.burst_size;
    fc.jitter = workload.jitter;
    fc.seed = flow.seed;
    floods_.push_back(
        std::make_unique<host::UdpFlood>(bed_.sim(), bed_.host(flow.src), fc));
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
                                 analysis::ManifestationAnalyzer&) {
  std::vector<scenario::MyrinetNodeHooks> hooks;
  hooks.reserve(bed_.node_count());
  for (std::size_t i = 0; i < bed_.node_count(); ++i) {
    hooks.push_back({&bed_.nic(i), &bed_.host(i).mcp()});
  }
  scenario_driver_ = std::make_unique<scenario::MyrinetScenarioDriver>(
      bed_.sim(), bed_.network_switch(), std::move(hooks));
  scenario_driver_->arm(spec, seed);
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
