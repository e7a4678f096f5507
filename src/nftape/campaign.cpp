#include "nftape/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "nftape/fabric.hpp"

namespace hsfi::nftape {

namespace {

/// Unsubscribes the analyzer and destroys the workload on scope exit so
/// nothing outlives the run's analyzer (runs may also end by RunCancelled).
struct FabricGuard {
  Fabric& fabric;
  ~FabricGuard() {
    fabric.disarm_scenario();
    fabric.detach_monitors();
    fabric.clear_workload();
  }
};

}  // namespace

CampaignRunner::CampaignRunner(Fabric& fabric) : fabric_(fabric) {}

CampaignRunner::CampaignRunner(Testbed& bed)
    : owned_(std::make_unique<MyrinetFabric>(bed)), fabric_(*owned_) {}

CampaignRunner::~CampaignRunner() = default;

void CampaignRunner::settle_checked(sim::Duration span,
                                    const RunControl* control,
                                    sim::Duration* elapsed) {
  if (control == nullptr || !control->should_cancel) {
    fabric_.settle(span);
    *elapsed += span;
    return;
  }
  const sim::Duration chunk =
      control->poll_interval > 0 ? control->poll_interval : span;
  sim::Duration left = span;
  while (left > 0) {
    if (control->should_cancel(*elapsed)) {
      throw RunCancelled("campaign run cancelled by watchdog");
    }
    const sim::Duration step = left < chunk ? left : chunk;
    fabric_.settle(step);
    *elapsed += step;
    left -= step;
  }
  if (control->should_cancel(*elapsed)) {
    throw RunCancelled("campaign run cancelled by watchdog");
  }
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec,
                                   const RunControl* control,
                                   sim::Duration elapsed_before) {
  const std::uint64_t seed =
      spec.seed != 0 ? spec.seed : fabric_.base_seed();
  const std::uint64_t events_begin = fabric_.sim().executed_events();
  const std::uint64_t symbols_begin = fabric_.symbols_sent();
  fabric_.reset_to_known_good(seed);
  sim::Duration elapsed = elapsed_before;

  // Manifestation monitoring: one analyzer per run, subscribed to the
  // simulator's observation stream. The guard unsubscribes it however the
  // run ends, so no subscription outlives it.
  analysis::ManifestationAnalyzer analyzer;
  FabricGuard guard{fabric_};
  fabric_.attach_monitors(analyzer);

  // Program the fault. The serial path is the authentic NFTAPE control
  // loop; the direct path is available for unit tests.
  core::InjectorConfig off;  // match mode kOff
  fabric_.program_fault(core::Direction::kLeftToRight,
                        spec.fault_to_switch.value_or(off),
                        spec.program_via_serial);
  fabric_.program_fault(core::Direction::kRightToLeft,
                        spec.fault_from_switch.value_or(off),
                        spec.program_via_serial);
  // Let the serial exchange (and anything in flight) finish.
  settle_checked(spec.program_guard, control, &elapsed);

  // Workload: every node floods its peers; every node sinks the port.
  fabric_.start_workload(spec.workload, seed, analyzer);

  settle_checked(spec.warmup, control, &elapsed);
  // Scenario steps are scheduled relative to the window start; arming after
  // the warmup settle keeps every firing strictly inside (window_begin,
  // window_end] where the analyzer's finalize window claims it.
  if (spec.scenario) {
    fabric_.arm_scenario(*spec.scenario, seed, analyzer);
  }
  const FabricCounters before = fabric_.snapshot();
  const sim::SimTime window_begin = fabric_.sim().now();
  settle_checked(spec.duration, control, &elapsed);
  fabric_.stop_workload();
  settle_checked(spec.drain, control, &elapsed);
  const FabricCounters after = fabric_.snapshot();
  const sim::SimTime window_end = fabric_.sim().now();
  fabric_.disarm_scenario();

  // Disarm the injector for whoever runs next, then give the network time
  // to recover so the next campaign starts from a known good state even if
  // this fault damaged routing or flow-control state.
  fabric_.disarm_faults(spec.program_via_serial);
  settle_checked(spec.disarm_guard, control, &elapsed);
  settle_checked(fabric_.recovery_time(), control, &elapsed);

  CampaignResult r;
  r.name = spec.name;
  r.medium = fabric_.medium();
  r.window = spec.duration + spec.drain;
  r.counters = after - before;
  r.events_executed = fabric_.sim().executed_events() - events_begin;
  r.symbols_sent = fabric_.symbols_sent() - symbols_begin;

  const auto outcome =
      analyzer.finalize(window_begin, window_end, r.counters.injections);
  r.manifestations = outcome.breakdown;
  r.secondary_effects = outcome.secondary_effects;
  r.manifestation_latency = outcome.latency;
  return r;
}

std::string_view to_string(Knob k) noexcept {
  switch (k) {
    case Knob::kSeuLfsrBits: return "seu-bits";
    case Knob::kUdpIntervalUs: return "udp-us";
    case Knob::kBurstSize: return "burst";
  }
  return "?";
}

std::optional<Knob> parse_knob(std::string_view s) {
  if (s == "seu-bits") return Knob::kSeuLfsrBits;
  if (s == "udp-us") return Knob::kUdpIntervalUs;
  if (s == "burst") return Knob::kBurstSize;
  return std::nullopt;
}

void apply_knob(CampaignSpec& spec, Knob knob, double value) {
  switch (knob) {
    case Knob::kSeuLfsrBits: {
      const auto bits = static_cast<unsigned>(
          std::clamp(std::llround(value), 0ll, 16ll));
      const std::uint16_t mask =
          bits == 0 ? std::uint16_t{0}
                    : static_cast<std::uint16_t>((1u << bits) - 1u);
      if (spec.fault_to_switch) spec.fault_to_switch->lfsr_mask = mask;
      if (spec.fault_from_switch) spec.fault_from_switch->lfsr_mask = mask;
      return;
    }
    case Knob::kUdpIntervalUs: {
      const auto ns = std::max(std::llround(value * 1000.0), 1ll);
      spec.workload.udp_interval = sim::nanoseconds(ns);
      return;
    }
    case Knob::kBurstSize: {
      spec.workload.burst_size =
          static_cast<std::size_t>(std::max(std::llround(value), 1ll));
      return;
    }
  }
}

}  // namespace hsfi::nftape
