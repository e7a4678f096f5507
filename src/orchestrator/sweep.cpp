#include "orchestrator/sweep.hpp"

#include "sim/rng.hpp"

namespace hsfi::orchestrator {

std::string_view to_string(FaultDirection d) noexcept {
  switch (d) {
    case FaultDirection::kToSwitch: return "to-switch";
    case FaultDirection::kFromSwitch: return "from-switch";
    case FaultDirection::kBoth: return "both";
  }
  return "?";
}

std::optional<FaultDirection> parse_direction(std::string_view text) noexcept {
  for (const auto d : {FaultDirection::kToSwitch, FaultDirection::kFromSwitch,
                       FaultDirection::kBoth}) {
    if (text == to_string(d)) return d;
  }
  return std::nullopt;
}

const std::vector<FaultPoint>& fault_axis(const SweepSpec& plane) {
  static const std::vector<FaultPoint> baseline = {
      {"baseline", std::nullopt, ""}};
  return plane.faults.empty() ? baseline : plane.faults;
}

const std::vector<FaultDirection>& direction_axis(const SweepSpec& plane) {
  static const std::vector<FaultDirection> both = {FaultDirection::kBoth};
  return plane.directions.empty() ? both : plane.directions;
}

RunSpec plan_run(const SweepSpec& plane, const FaultPoint& fault,
                 FaultDirection direction, std::string_view point,
                 std::size_t rep, std::uint64_t seed) {
  RunSpec run;
  run.seed = seed;
  run.startup_settle =
      plane.startup_settle > 0
          ? plane.startup_settle
          : plane.testbed.map_period + plane.testbed.map_reply_window +
                sim::milliseconds(50);
  run.testbed = plane.testbed;
  run.testbed.seed = seed;
  run.campaign = plane.base;
  run.campaign.seed = seed;
  run.campaign.name = fault.name;
  run.campaign.name += '/';
  run.campaign.name += to_string(direction);
  run.campaign.name += '/';
  run.campaign.name += point;
  run.campaign.name += "/r";
  run.campaign.name += std::to_string(rep);
  run.campaign.fault_to_switch.reset();
  run.campaign.fault_from_switch.reset();
  if (fault.config) {
    if (direction != FaultDirection::kFromSwitch) {
      run.campaign.fault_to_switch = fault.config;
    }
    if (direction != FaultDirection::kToSwitch) {
      run.campaign.fault_from_switch = fault.config;
    }
  }
  return run;
}

std::vector<RunSpec> expand(const SweepSpec& sweep) {
  const auto& faults = fault_axis(sweep);
  const auto& directions = direction_axis(sweep);
  // An empty intensity axis is the base workload's one point.
  const std::vector<IntensityPoint> intensities =
      sweep.intensities.empty()
          ? std::vector<IntensityPoint>{{"base", sweep.base.workload.udp_interval,
                                         sweep.base.workload.burst_size,
                                         sweep.base.workload.payload_size}}
          : sweep.intensities;
  const std::size_t replicates =
      sweep.replicates == 0 ? 1 : sweep.replicates;

  std::vector<RunSpec> runs;
  runs.reserve(faults.size() * directions.size() * intensities.size() *
               replicates);
  for (const auto& fault : faults) {
    for (const auto dir : directions) {
      for (const auto& intensity : intensities) {
        for (std::size_t rep = 0; rep < replicates; ++rep) {
          const std::size_t index = runs.size();
          RunSpec run = plan_run(sweep, fault, dir, intensity.name, rep,
                                 sim::derive_seed(sweep.base_seed, index));
          run.index = index;
          run.campaign.workload.udp_interval = intensity.udp_interval;
          run.campaign.workload.burst_size = intensity.burst_size;
          run.campaign.workload.payload_size = intensity.payload_size;
          runs.push_back(std::move(run));
        }
      }
    }
  }
  return runs;
}

}  // namespace hsfi::orchestrator
