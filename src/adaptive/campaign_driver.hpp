// The campaign driver: one pipeline for every campaign run_sweep starts —
// its grid flags lowered by orchestrator::lower_grid_flags or a --spec
// campaign file, static or steered by a strategy — so monitoring, bench
// records, dry runs and the report work the same on all of them.
//
// It lives in src/adaptive rather than src/orchestrator because it builds
// Controllers and strategies and attaches the monitor: hsfi_adaptive
// already links the orchestrator, monitor and nftape libraries, while an
// orchestrator-hosted driver would make the orchestrator depend on its
// own dependents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "orchestrator/campaign_file.hpp"

namespace hsfi::adaptive {

/// How to execute a campaign: run_sweep's execution flags, one field per
/// flag. run_sweep refuses the combinations that contradict each other
/// (see its usage text); the driver assumes a consistent set.
struct CampaignOptions {
  std::string out_path;        ///< JSONL destination; empty = stdout
  std::string bench_out_path;  ///< throughput records; empty = none
  std::size_t workers = 0;     ///< 0 = hardware concurrency
  bool snapshots = false;      ///< snapshot/fork execution
  bool timing = false;         ///< per-run wall_ms in the records
  bool dry_run = false;        ///< print the plan; execute and write nothing
  bool monitor = false;        ///< live monitor, final table on stderr
  long monitor_interval_ms = 0;  ///< also re-render this often (0 = never)
  bool early_cancel = false;   ///< strategy campaigns: live mode
  // Durable execution: only a spec file (nonzero digest) written to
  // out_path is checkpointed — static runs in fsync'd batches, strategy
  // runs at every round barrier — and only it can resume, shard or merge.
  bool resume = false;
  std::uint32_t shard_k = 0;
  std::uint32_t shard_n = 1;
  std::uint32_t merge_n = 0;   ///< merge this many shard files into out_path
  std::size_t batch = 0;       ///< runs per batch; 0 = file.checkpoint_batch
  /// Test hook: after N durable batches or rounds, append a torn record
  /// and _exit(9), as a SIGKILL would leave the files.
  std::uint64_t crash_after = 0;
};

/// Runs (or, with dry_run, plans) `file`. JSONL goes to out_path or
/// stdout; progress, per-round lines and the report go to stderr.
/// Returns the exit code: 0 when every run finished ok or was skipped by
/// early cancel, 2 when one did not, 1 on an I/O or checkpoint error.
int run_campaign(const orchestrator::CampaignFile& file,
                 const CampaignOptions& options);

}  // namespace hsfi::adaptive
