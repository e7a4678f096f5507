// Parallel campaign execution: a fixed-size worker pool over expanded
// sweep runs, with per-run watchdogs, one retry, and JSONL result records.
//
// Thread model (see DESIGN.md "Orchestrator"): the simulation core is
// single-threaded by design; parallelism happens strictly at run
// granularity. Each worker constructs a private Testbed + Simulator per
// run, so no simulation state is ever shared between threads — the only
// cross-thread traffic is the run-index counter, the per-record slots
// (disjoint per run), and the progress callback and record sinks
// (serialized by a mutex). Seeds are derived from (base_seed, run index)
// before execution starts, so results are bit-identical regardless of
// worker count or completion order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/accumulator.hpp"
#include "nftape/campaign.hpp"
#include "nftape/report.hpp"
#include "orchestrator/sweep.hpp"

namespace hsfi::orchestrator {

enum class RunOutcome : std::uint8_t {
  kOk,        ///< campaign completed and produced a result
  kTimedOut,  ///< watchdog cancelled every attempt
  kError,     ///< executor threw (non-watchdog)
  kSkipped,   ///< RunnerConfig::should_skip declined the run (never started)
};

[[nodiscard]] std::string_view to_string(RunOutcome o) noexcept;

/// One line of the campaign log: everything about one run.
struct RunRecord {
  std::size_t index = 0;
  std::string name;
  std::uint64_t seed = 0;
  /// Which fabric realization ran this campaign (recorded even for failed
  /// runs, where `result` is not valid).
  nftape::Medium medium = nftape::Medium::kMyrinet;
  std::uint32_t round = 0;  ///< adaptive round (meaningful when strategy set)
  std::string strategy;     ///< adaptive strategy tag; empty for static sweeps
  std::string scenario;     ///< misbehavior-scenario name; empty when none
  RunOutcome outcome = RunOutcome::kError;
  int attempts = 0;  ///< executor invocations (1 normally, 2 after a retry)
  int timeouts = 0;  ///< attempts the watchdog cancelled
  std::string error;  ///< what() of the last non-watchdog failure
  nftape::CampaignResult result;  ///< valid when outcome == kOk
  double wall_ms = 0.0;  ///< wall time across attempts (nondeterministic)
};

/// Serializes a record as one JSONL line (no trailing newline). Field
/// order is fixed. `include_timing` appends wall_ms — deliberately opt-in,
/// because wall time is the one nondeterministic field and leaving it out
/// keeps sorted JSONL byte-identical across worker counts.
[[nodiscard]] std::string to_jsonl(const RunRecord& record,
                                   bool include_timing = false);

/// Reads one to_jsonl line back, through the same field list, so the
/// emitter and the reader cannot drift. Returns nullopt unless the line is
/// one strict JSON object (orchestrator::parse_json) that carries `name`
/// (non-empty) and `outcome`, with every listed field it carries well
/// typed: text where text belongs, an outcome or medium name that exists,
/// a non-negative integer that fits its field (`round` 32 bits, `attempts`
/// and `timeouts` an int) — never a fraction, a sign or a string — and a
/// window_ms from 0 to 10^9. Unknown keys are skipped. loss_pct and duplicates are derived from the counters
/// and only type-checked. JSONL carries no latency histogram, so the
/// record's is empty (Histogram::merge ignores it).
[[nodiscard]] std::optional<RunRecord> parse_jsonl(std::string_view line);

/// Aggregate table over a finished sweep: one row per run plus totals.
[[nodiscard]] nftape::Report summarize(const std::string& title,
                                       const std::vector<RunRecord>& records);

/// The "<fault>/<direction>" cell key of a run name: its first two
/// '/'-separated segments. Names with fewer segments key as the whole name.
/// Shared by cell_summary and the streaming monitor so both aggregate over
/// the same cells.
[[nodiscard]] std::string cell_key(std::string_view run_name);

/// Folds one run into its cell's totals: the one fold cell_summary and the
/// live monitor share, so both show the same numbers.
void fold_run(analysis::CellStats& cell, const RunRecord& record);

/// Per-cell aggregate: records grouped by the cell_key of their run name,
/// with the manifestation rate (manifested firings / injections) and its
/// Wilson 95% confidence interval per cell — the same interval the adaptive
/// coverage strategy stops on, so the table shows exactly the numbers the
/// controller acted on.
[[nodiscard]] nftape::Report cell_summary(const std::string& title,
                                          const std::vector<RunRecord>& records);

struct Progress {
  std::size_t total = 0;
  std::size_t completed = 0;  ///< finished ok
  std::size_t failed = 0;     ///< finished timed_out or error
  std::size_t skipped = 0;    ///< declined by should_skip (early-cancel)
  std::size_t in_flight = 0;
  std::size_t retries = 0;    ///< attempts beyond the first, so far
};

/// Streaming consumer of finished run records — the online analysis plane's
/// attachment point (monitor::MonitorService implements it). The runner
/// fires it per completed run, in completion order, serialized by the same
/// mutex as the on_progress callback, so an implementation needs no locking
/// of its own against the pool (it does need it against readers on other
/// threads).
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void on_record(const RunRecord& record) = 0;
};

struct RunnerConfig {
  /// Worker threads. 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Per-attempt wall-clock cap. 0 = none.
  std::chrono::milliseconds wall_limit{0};
  /// Per-attempt simulated-time cap. 0 = auto: 8x the run's own simulated
  /// span (startup + programming + window + recovery) — generous for a
  /// healthy run, fatal for a livelocked one.
  sim::Duration sim_limit = 0;
  /// Retries after a watchdog timeout or executor error (same seed).
  int max_retries = 1;
  /// Watchdog poll granularity in simulated time (RunControl chunking).
  sim::Duration poll_interval = sim::milliseconds(10);
  /// Snapshot/fork execution: each worker settles the fabric once per
  /// (topology, workload, medium) cell, captures the settled state, and
  /// forks every subsequent run of that cell from the snapshot instead of
  /// re-simulating boot + mapping. Per-run state (seeds, RNG streams,
  /// monitors, workload) is re-derived by reset_to_known_good, so JSONL is
  /// byte-identical to cold starts (tests/snapshot_test.cpp pins this).
  /// Ignored when a custom executor is set.
  bool snapshots = false;
  /// Called (serialized) after every run completes.
  std::function<void(const Progress&)> on_progress;
  /// Streaming record consumers, fired (serialized) with every finished
  /// record, in completion order, in registration order. Raw pointers:
  /// sinks must outlive every run_all / run_batch call.
  std::vector<RecordSink*> sinks;
  /// Early-cancel hook for closed-loop controllers: polled when a worker
  /// dequeues a run; true skips execution entirely and records
  /// RunOutcome::kSkipped (0 attempts). Called concurrently from worker
  /// threads — must be thread-safe. Which runs observe a late-arriving skip
  /// depends on completion order, so any campaign that wants byte-stable
  /// JSONL must leave this unset (the adaptive controller's deterministic
  /// mode does).
  std::function<bool(const RunSpec&)> should_skip;
  /// Executes one attempt; used by tests to substitute hostile executors.
  /// Default: build an isolated Testbed, settle startup, run the campaign
  /// under `control`. Must throw nftape::RunCancelled when cancelled.
  std::function<nftape::CampaignResult(const RunSpec&,
                                       const nftape::RunControl&)>
      executor;
};

class Runner {
 public:
  explicit Runner(RunnerConfig config = {});
  ~Runner();

  /// Executes every run and returns records indexed by RunSpec::index.
  /// Blocks until all runs finish. Resets the
  /// cross-batch Progress accumulation first (one-shot sweeps).
  std::vector<RunRecord> run_all(const std::vector<RunSpec>& runs);

  /// Batch submission for closed-loop controllers: executes one round of
  /// runs and returns its records (positional, like run_all), but Progress
  /// accumulates across batches so on_progress reports campaign-wide
  /// totals while the controller alternates submit / observe. The batch
  /// boundary is a synchronization point: run_batch returns only when
  /// every run of the batch has finished.
  std::vector<RunRecord> run_batch(const std::vector<RunSpec>& runs);

 private:
  /// Per-worker snapshot cache (defined in runner.cpp): the settled fabric
  /// and its captured state, keyed by (medium, startup settle, seed-
  /// normalized TestbedConfig). One per worker index, touched only by that
  /// worker's thread; persists across run_batch calls so the adaptive
  /// controller's rounds reuse it.
  struct SnapshotCache;

  void execute_one(const RunSpec& run, RunRecord& record, std::size_t worker);
  nftape::CampaignResult snapshot_execute(const RunSpec& run,
                                          const nftape::RunControl& control,
                                          SnapshotCache& cache);

  RunnerConfig config_;
  std::vector<std::unique_ptr<SnapshotCache>> caches_;
  /// Campaign-wide progress, accumulated across run_batch calls. Only
  /// touched between batches (the pool itself guards it with a mutex while
  /// running), so no atomicity is needed here.
  Progress progress_;
};

}  // namespace hsfi::orchestrator
