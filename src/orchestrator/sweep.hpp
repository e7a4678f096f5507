// Declarative campaign sweeps: a parameter grid over the paper's fault
// axes, expanded into independent runs.
//
// The paper's evaluation (§4.3.1–§4.3.4, Table 4, Fig. 9) is a matrix of
// campaigns: fault type × corrupted symbol × injector direction × workload,
// each repeated for statistical confidence. NFTAPE drove those sequentially
// against one physical testbed; here every expanded run carries its own
// TestbedConfig and derived seed, so an executor may run them in any order,
// on any thread, and the results depend only on the grid and the base seed
// (FINJ-style declarative campaign configs, Netti et al.).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/injector_config.hpp"
#include "nftape/campaign.hpp"
#include "nftape/testbed.hpp"
#include "sim/time.hpp"

namespace hsfi::orchestrator {

/// One point on the fault axis: a named injector configuration.
struct FaultPoint {
  std::string name;
  /// nullopt = fault-free baseline run.
  std::optional<core::InjectorConfig> config;
  /// One-line human description (shown by `run_sweep --list-faults`);
  /// optional — expansion and run naming never read it. The default
  /// member initializer lets aggregate initializers leave it out.
  std::string description{};
};

/// Which link direction(s) the fault is programmed into (the device sits
/// between node 0 and the switch and injects independently per direction).
enum class FaultDirection : std::uint8_t {
  kToSwitch,    ///< node -> switch (left-to-right)
  kFromSwitch,  ///< switch -> node (right-to-left)
  kBoth,
};

[[nodiscard]] std::string_view to_string(FaultDirection d) noexcept;
/// Inverse of to_string; nullopt for any other text.
[[nodiscard]] std::optional<FaultDirection> parse_direction(
    std::string_view text) noexcept;

/// One point on the workload-intensity axis.
struct IntensityPoint {
  std::string name;
  sim::Duration udp_interval = sim::microseconds(100);
  std::size_t burst_size = 1;
  std::size_t payload_size = 64;
};

/// The full grid. Axes with no entries contribute a single neutral point,
/// so the minimal sweep is faults alone. It is also the one campaign
/// plane: a campaign file's target is one, and a strategy steers one
/// (adaptive::AdaptiveSpec adds only the knob and the controller's caps).
struct SweepSpec {
  std::string name = "sweep";
  /// Template for every run: measurement window, workload defaults,
  /// serial-vs-direct programming, and the medium — `base.medium` selects
  /// which Fabric realization every expanded run executes on (the grid
  /// itself is medium-agnostic; only the fault axis needs to target the
  /// chosen medium's symbol stream). Fault, intensity, name, and seed
  /// fields are overwritten per grid point.
  nftape::CampaignSpec base;
  /// Template for every run's private testbed; seed overwritten per run.
  nftape::TestbedConfig testbed;
  /// Simulated settle after Testbed::start() before the campaign begins
  /// (mapping must converge). 0 = auto: map_period + reply window + 50 ms.
  sim::Duration startup_settle = 0;

  std::vector<FaultPoint> faults;
  std::vector<FaultDirection> directions = {FaultDirection::kBoth};
  std::vector<IntensityPoint> intensities;
  std::size_t replicates = 1;
  std::uint64_t base_seed = 1;
};

/// One expanded run: everything a worker needs to execute it in isolation.
struct RunSpec {
  std::size_t index = 0;    ///< position in the expanded grid
  /// derive_seed(base_seed, index) on the static grid; strategy runs key
  /// it on (round, cell, replicate) instead (adaptive::derive_run_seed).
  std::uint64_t seed = 0;
  sim::Duration startup_settle = 0;  ///< resolved (never 0)
  /// Closed-loop provenance (src/adaptive): which controller round issued
  /// this run and under which strategy. Static sweeps leave `strategy`
  /// empty, and the JSONL record then carries neither field — the legacy
  /// record format is a strict prefix-compatible subset.
  std::uint32_t round = 0;
  std::string strategy;
  nftape::CampaignSpec campaign;
  nftape::TestbedConfig testbed;
};

/// The fault axis a plane's runs walk: its own, or one fault-free
/// "baseline" point when it names none.
[[nodiscard]] const std::vector<FaultPoint>& fault_axis(const SweepSpec& plane);
/// The direction axis a plane's runs walk: its own, or {kBoth} when empty.
[[nodiscard]] const std::vector<FaultDirection>& direction_axis(
    const SweepSpec& plane);

/// The one run constructor, shared by the static grid (expand) and the
/// strategy rounds (adaptive::Controller::expand_round): resolves the
/// plane's startup settle, copies its testbed and campaign templates with
/// `seed` stamped on both, names the run "<fault>/<direction>/<point>/r<rep>"
/// and installs `fault` on the link directions `direction` covers. The
/// caller sets the index, the workload point (or knob) and provenance.
[[nodiscard]] RunSpec plan_run(const SweepSpec& plane, const FaultPoint& fault,
                               FaultDirection direction,
                               std::string_view point, std::size_t rep,
                               std::uint64_t seed);

/// Expands the grid in fault-major order:
/// fault × direction × intensity × replicate. Run names are
/// "<fault>/<direction>/<intensity>/r<replicate>"; seeds are splitmix64
/// derivations of (base_seed, index), so the expansion is a pure function
/// of the spec.
[[nodiscard]] std::vector<RunSpec> expand(const SweepSpec& sweep);

}  // namespace hsfi::orchestrator
