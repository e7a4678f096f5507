// Runs-to-threshold: the adaptive bisection strategy vs the full grid.
//
// The closed-loop claim worth a number: locating the manifestation
// threshold of each fault x direction cell by bisection must cost at most
// half the runs of sweeping the equivalent fixed grid at the same
// resolution. This bench plants a hidden threshold per cell on the
// udp-interval axis behind a synthetic executor (deterministic, no
// simulation — the quantity under test is the search, not the kernel),
// runs the controller to convergence, and fails hard if
//
//   * any cell misses its planted threshold by more than the tolerance, or
//   * total bisection runs exceed 50% of the grid-equivalent run count.
//
// The ctest bench_smoke lane runs this with --smoke; the JSON output uses
// the BENCH_sim_kernel.json record schema so results diff across commits.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/strategy.hpp"
#include "harness.hpp"
#include "myrinet/control.hpp"
#include "nftape/faults.hpp"
#include "orchestrator/jsonl.hpp"

using namespace hsfi;

namespace {

/// The planted manifestation thresholds (udp-us axis, smaller interval =
/// more intense): cell i manifests iff interval <= kThresholds[i].
/// Deliberately not on the bisection's probe lattice, so the bracket has
/// to straddle them.
constexpr double kThresholds[] = {57.3, 130.9, 211.4, 333.7};

struct BenchResult {
  std::size_t bisect_runs = 0;
  std::size_t grid_runs = 0;
  double max_threshold_error = 0;  ///< worst |estimate - planted| in us
  double tolerance = 0;
  bool ok = true;
};

BenchResult run_once(std::size_t cell_count, double tolerance) {
  adaptive::AdaptiveSpec spec;
  spec.name = "bench_adaptive";
  spec.faults = {
      {"gap-go", nftape::control_symbol_corruption(myrinet::ControlSymbol::kGap,
                                                   myrinet::ControlSymbol::kGo)},
      {"stop-go", nftape::control_symbol_corruption(
                      myrinet::ControlSymbol::kStop, myrinet::ControlSymbol::kGo)},
  };
  spec.directions = {orchestrator::FaultDirection::kFromSwitch,
                     orchestrator::FaultDirection::kBoth};
  spec.knob = nftape::Knob::kUdpIntervalUs;
  spec.base_seed = 42;
  spec.max_rounds = 64;

  // Cell-major name prefixes ("<fault>/<direction>/"), in the order
  // Controller::cells() indexes cells — captured by value, the spec itself
  // is moved into the controller below.
  std::vector<std::string> prefixes;
  for (const auto& fault : spec.faults) {
    for (const auto dir : spec.directions) {
      prefixes.push_back(fault.name + "/" +
                         std::string(orchestrator::to_string(dir)) + "/");
    }
  }

  adaptive::ControllerConfig config;
  config.runner.workers = 1;
  // The plant: manifestation iff the knob drove the interval to or below
  // the cell's threshold. RunSpec::index is global across rounds — recover
  // the cell from the run name instead.
  config.runner.executor = [prefixes](const orchestrator::RunSpec& run,
                                      const nftape::RunControl&) {
    std::size_t cell = 0;
    const std::string& name = run.campaign.name;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (name.rfind(prefixes[i], 0) == 0) cell = i;
    }
    const double interval_us =
        sim::to_microseconds(run.campaign.workload.udp_interval);
    nftape::CampaignResult r;
    r.name = name;
    r.counters.injections = 40;
    r.events_executed = 1000;
    r.counters.messages_sent = r.counters.messages_received = 100;
    if (interval_us <= kThresholds[cell]) {
      r.manifestations[analysis::Manifestation::kCrcDropped] = 30;
      r.manifestations[analysis::Manifestation::kMasked] = 10;
    } else {
      r.manifestations[analysis::Manifestation::kMasked] = 40;
    }
    return r;
  };

  adaptive::Controller controller(std::move(spec), std::move(config));
  auto cells = controller.cells();
  cells.resize(cell_count);

  adaptive::BisectionConfig bc;
  bc.lo = 12.0;
  bc.hi = 396.0;
  bc.tolerance = tolerance;
  bc.higher_is_more_intense = false;
  bc.replicates = 1;
  bc.min_manifested = 1;
  adaptive::BisectionStrategy strategy(cells, bc);

  const auto outcome = controller.run(strategy);

  BenchResult out;
  out.tolerance = strategy.tolerance();
  out.bisect_runs = outcome.records.size();
  out.grid_runs = strategy.grid_equivalent_runs_per_cell() * cells.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& t = strategy.thresholds()[i];
    if (!t.found || !t.converged) {
      std::fprintf(stderr, "cell %zu: threshold not located (found=%d)\n", i,
                   t.found);
      out.ok = false;
      continue;
    }
    const double err = std::fabs(t.estimate() - kThresholds[i]);
    if (err > out.max_threshold_error) out.max_threshold_error = err;
    if (err > out.tolerance) {
      std::fprintf(stderr,
                   "cell %zu: estimate %.2f us vs planted %.2f us "
                   "(error %.2f > tolerance %.2f)\n",
                   i, t.estimate(), kThresholds[i], err, out.tolerance);
      out.ok = false;
    }
  }
  if (out.bisect_runs * 2 > out.grid_runs) {
    std::fprintf(stderr, "bisection used %zu runs > 50%% of the %zu-run grid\n",
                 out.bisect_runs, out.grid_runs);
    out.ok = false;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  const std::size_t cell_count = options.smoke ? 2 : 4;
  const double tolerance = options.smoke ? 12.0 : 6.0;

  const BenchResult r = run_once(cell_count, tolerance);
  const double ratio = r.grid_runs > 0 ? static_cast<double>(r.bisect_runs) /
                                             static_cast<double>(r.grid_runs)
                                       : 1.0;
  std::printf(
      "bench_adaptive: %zu cells, tolerance %.1f us\n"
      "  bisection runs     %zu\n"
      "  grid-equivalent    %zu\n"
      "  run ratio          %.3f (must be <= 0.500)\n"
      "  worst estimate err %.2f us\n",
      cell_count, r.tolerance, r.bisect_runs, r.grid_runs, ratio,
      r.max_threshold_error);

  if (!options.out_path.empty() &&
      !orchestrator::write_bench_records(
          options.out_path,
          {{"bench_adaptive", "bisect_runs",
            static_cast<double>(r.bisect_runs), 0, "count"},
           {"bench_adaptive", "grid_runs", static_cast<double>(r.grid_runs),
            0, "count"},
           {"bench_adaptive", "run_ratio", ratio, 3, "ratio"},
           {"bench_adaptive", "threshold_error_max", r.max_threshold_error, 2,
            "us"}})) {
    return 1;
  }
  return r.ok ? 0 : 1;
}
