// The online monitoring service: the paper's "monitoring" half run as a
// live analysis plane instead of post-hoc scripts.
//
// A MonitorService ingests the run-record stream while the campaign is
// still executing — in-process as an orchestrator::RecordSink fired per
// completed run, or out-of-process by tailing a shard's JSONL file — and
// maintains, per (group, cell):
//
//  * an analysis::CellStats (8-class manifestation breakdown and the
//    counts behind the Wilson 95% interval), folded by the same
//    orchestrator::fold_run as the per-cell report, so the live and the
//    final numbers agree bit for bit, and
//  * a monitor::LatencyDrift tracker (rolling latency window vs baseline),
//
// where group is the fabric medium ("myrinet"/"fc") and cell the
// "<fault>/<direction>" key the adaptive loop steers by. drift_flags()
// recomputes the cross-group rate-divergence and per-cell latency-shift
// verdicts from the current state; table() renders the live per-cell view.
//
// Thread model: every mutator and every reader takes one mutex. The runner
// already serializes sink callbacks, but the whole point of a live monitor
// is that *another* thread (a renderer, a controller) reads concurrently —
// the CHAOS-style rule is that observation cost stays off the simulation
// hot path: workers pay one map lookup and a few counter adds per completed
// run (microseconds against a multi-second run), never per event.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/accumulator.hpp"
#include "monitor/drift.hpp"
#include "nftape/report.hpp"
#include "orchestrator/runner.hpp"

namespace hsfi::monitor {

struct MonitorConfig {
  DriftConfig drift;
};

/// One (group, cell) snapshot row as table() renders it.
struct CellView {
  std::string group;
  std::string cell;
  analysis::CellStats stats;
};

class MonitorService final : public orchestrator::RecordSink {
 public:
  explicit MonitorService(MonitorConfig config = {});

  /// RecordSink: fold one finished run (in-process attachment point —
  /// plug into orchestrator::RunnerConfig::sinks).
  void on_record(const orchestrator::RunRecord& record) override;

  /// Tail mode: splits a chunk of JSONL text into lines and folds each one
  /// orchestrator::parse_jsonl accepts through on_record (its latency
  /// histogram is empty, so only the counters move); malformed lines are
  /// counted and dropped. Returns the number of records accepted.
  std::size_t ingest_jsonl(std::string_view chunk);

  /// Records folded so far (ok or not, both count).
  [[nodiscard]] std::uint64_t records() const;
  [[nodiscard]] std::uint64_t malformed_lines() const;

  /// Snapshot of one cell's streaming stats (default group = "myrinet").
  /// Returns an empty cell when nothing has been folded for the key.
  [[nodiscard]] analysis::CellStats cell(
      const std::string& cell_name,
      const std::string& group = "myrinet") const;

  /// Snapshot of every (group, cell), key-sorted — deterministic given the
  /// folded record multiset.
  [[nodiscard]] std::vector<CellView> cells() const;

  /// Current drift verdicts, deterministically ordered (rate divergences
  /// first, cell-name order; then latency shifts). Rate divergence is a
  /// pure function of the folded record multiset; latency shift depends on
  /// fold order through its rolling window (deterministic with one worker,
  /// completion-order-sensitive otherwise — documented in DESIGN §10).
  [[nodiscard]] std::vector<DriftFlag> drift_flags() const;

  /// The live per-cell table: Wilson CI, class breakdown, drift flags.
  [[nodiscard]] nftape::Report table(const std::string& title) const;

 private:
  struct Entry {
    analysis::CellStats cell;
    LatencyDrift latency;
  };
  using Key = std::pair<std::string, std::string>;  ///< (group, cell)

  Entry& entry_locked(const std::string& group, const std::string& cell);
  [[nodiscard]] std::vector<DriftFlag> drift_flags_locked() const;

  MonitorConfig config_;
  mutable std::mutex mu_;
  std::map<Key, Entry> cells_;
  std::uint64_t records_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace hsfi::monitor
