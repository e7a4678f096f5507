// One benchmark pass: a whole campaign built from run_sweep's flags and
// run through the public orchestrator / adaptive APIs exactly as
// examples/run_sweep.cpp builds it, plain or traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nftape/medium.hpp"
#include "orchestrator/runner.hpp"
#include "trace.hpp"

namespace hsfi::bench {

/// The subset of run_sweep's flags the benchmark's workloads use, with
/// run_sweep's defaults. A workload is one set of these values, so its
/// campaign can be re-run verbatim through run_sweep.
struct CampaignFlags {
  nftape::Medium medium = nftape::Medium::kMyrinet;
  std::string faults;  ///< comma-separated filter; empty = the whole axis
  std::size_t replicates = 2;
  long duration_ms = 60;
  bool snapshots = false;
  bool monitor = false;
  std::string strategy;  ///< "" = static grid; "coverage"
  std::uint64_t seed = 1;
  std::size_t workers = 0;
};

/// Parses one run_sweep flag at argv[i] (advancing i past its value).
/// Returns false when argv[i] is not one of the supported flags; throws
/// std::invalid_argument on a malformed value.
bool parse_campaign_flag(int argc, char** argv, int& i, CampaignFlags& flags);

struct PassResult {
  bool traced = false;
  double setup_s = 0.0;  ///< pass start until the first run is dispatched
  double wall_s = 0.0;   ///< pass start until the JSONL is written
  /// Simulated span of every run: startup, guards, warm-up, window, drain
  /// and recovery.
  double sim_span_s = 0.0;
  std::uint32_t rounds = 0;   ///< adaptive rounds; 0 for a static grid
  std::size_t retries = 0;    ///< Progress::retries at the end
  std::vector<orchestrator::RunRecord> records;  ///< by run index
  std::string jsonl;  ///< the records as run_sweep writes them
  std::vector<Span> spans;     ///< traced passes only
  std::int64_t overhead_ns = 0;  ///< tracing bookkeeping, traced passes only
};

enum class PassMode : std::uint8_t {
  kPlain,   ///< the campaign as run_sweep runs it
  kTraced,  ///< the same, observed through the decorators of trace.hpp
  /// Set-up as for kPlain, then every run is declined through
  /// RunnerConfig::should_skip: only setup_s is measured. Cheap enough to
  /// repeat, so setup_s can be a median of many set-ups per invocation.
  kSetupOnly,
};

/// Runs the campaign once.
[[nodiscard]] PassResult run_pass(const CampaignFlags& flags, PassMode mode);

}  // namespace hsfi::bench
