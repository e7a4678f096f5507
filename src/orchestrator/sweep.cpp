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

std::vector<RunSpec> expand(const SweepSpec& sweep) {
  // Empty axes collapse to one neutral point so the nest below is uniform.
  const std::vector<FaultPoint> faults =
      sweep.faults.empty()
          ? std::vector<FaultPoint>{{"baseline", std::nullopt, ""}}
          : sweep.faults;
  const std::vector<FaultDirection> directions =
      sweep.directions.empty()
          ? std::vector<FaultDirection>{FaultDirection::kBoth}
          : sweep.directions;
  const std::vector<IntensityPoint> intensities =
      sweep.intensities.empty()
          ? std::vector<IntensityPoint>{{"base", sweep.base.workload.udp_interval,
                                         sweep.base.workload.burst_size,
                                         sweep.base.workload.payload_size}}
          : sweep.intensities;
  const std::size_t replicates =
      sweep.replicates == 0 ? 1 : sweep.replicates;

  const sim::Duration startup =
      sweep.startup_settle > 0
          ? sweep.startup_settle
          : sweep.testbed.map_period + sweep.testbed.map_reply_window +
                sim::milliseconds(50);

  std::vector<RunSpec> runs;
  runs.reserve(faults.size() * directions.size() * intensities.size() *
               replicates);
  for (const auto& fault : faults) {
    for (const auto dir : directions) {
      for (const auto& intensity : intensities) {
        for (std::size_t rep = 0; rep < replicates; ++rep) {
          RunSpec run;
          run.index = runs.size();
          run.seed = sim::derive_seed(sweep.base_seed, run.index);
          run.startup_settle = startup;
          run.testbed = sweep.testbed;
          run.testbed.seed = run.seed;
          run.campaign = sweep.base;
          run.campaign.seed = run.seed;
          run.campaign.name = fault.name;
          run.campaign.name += '/';
          run.campaign.name += to_string(dir);
          run.campaign.name += '/';
          run.campaign.name += intensity.name;
          run.campaign.name += "/r";
          run.campaign.name += std::to_string(rep);
          run.campaign.workload.udp_interval = intensity.udp_interval;
          run.campaign.workload.burst_size = intensity.burst_size;
          run.campaign.workload.payload_size = intensity.payload_size;
          run.campaign.fault_to_switch.reset();
          run.campaign.fault_from_switch.reset();
          if (fault.config) {
            if (dir != FaultDirection::kFromSwitch) {
              run.campaign.fault_to_switch = fault.config;
            }
            if (dir != FaultDirection::kToSwitch) {
              run.campaign.fault_from_switch = fault.config;
            }
          }
          runs.push_back(std::move(run));
        }
      }
    }
  }
  return runs;
}

}  // namespace hsfi::orchestrator
