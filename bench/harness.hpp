// Benchmark-regression harness for the simulation kernel.
//
// Every scenario is a callable that builds its own testbed, runs a fixed
// deterministic workload, and returns the number of kernel events it
// executed. The harness times warm-up plus N repetitions, reports median
// and IQR events/sec and wall time, and writes the results in the stable
// BENCH_sim_kernel.json schema (orchestrator::write_bench_records) — a JSON
// array of flat records
//   {"bench": ..., "metric": ..., "value": ..., "unit": ..., "commit": ...}
// so numbers from different commits diff and join trivially (see README
// "Benchmarking").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hsfi::bench {

struct Options {
  int reps = 5;     ///< measured repetitions per scenario
  int warmup = 1;   ///< unmeasured repetitions before timing starts
  bool smoke = false;  ///< shrink workloads (CI bench_smoke lane)
  std::string out_path;  ///< --out FILE: write the JSON records there
  std::string only;      ///< --bench NAME: run just that scenario
};

/// Parses --reps N / --warmup N / --smoke / --out FILE / --bench NAME /
/// --help. Prints usage and exits on malformed input.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// Per-scenario aggregate over the measured repetitions.
struct Summary {
  std::string bench;
  int reps = 0;
  std::uint64_t events = 0;          ///< per repetition (identical across reps)
  double median_events_per_sec = 0;
  double iqr_events_per_sec = 0;     ///< Q3 - Q1 across repetitions
  double median_wall_s = 0;
};

class Harness {
 public:
  explicit Harness(Options options);

  /// Runs `body` (warm-up + reps times) unless --bench filters it out.
  /// `body` returns the kernel events executed by that repetition; the
  /// harness checks the count is identical across repetitions, since a
  /// run-to-run difference means the scenario is not deterministic and its
  /// numbers are garbage. A body that throws (a failed run, or a broken
  /// deterministic check) fails the scenario: it is reported on stderr and
  /// leaves no summary.
  void measure(const std::string& name,
               const std::function<std::uint64_t()>& body);

  /// Renders the results table to stdout, writes the JSON file when --out
  /// was given, and returns the process exit code (non-zero when a
  /// scenario failed or was nondeterministic, or the file could not be
  /// written).
  int finish();

  [[nodiscard]] const std::vector<Summary>& summaries() const noexcept {
    return summaries_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  std::vector<Summary> summaries_;
  bool failed_ = false;
};

}  // namespace hsfi::bench
