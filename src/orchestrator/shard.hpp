// Sharded, checkpointed campaign execution: split one expanded run set
// across independent processes, write each campaign's records durably
// barrier by barrier, survive a mid-flight SIGKILL, and merge the shard
// files back into the byte-exact single-process JSONL.
//
// Partitioning is seed-keyed, not index-keyed: shard_of() hashes the
// run's derived seed through splitmix64, so ownership is a pure function
// of the spec — every process that expands the same campaign file agrees
// on who owns what without any coordination, and inserting a target into
// the spec reshuffles nothing that kept its seed.
//
// Durability contract (the JSONL file is the ground truth, the sidecar is
// the cursor): at every barrier the data file is fsync'd first, then the
// sidecar is replaced atomically (tmp + fsync + rename). A crash between
// the two leaves a sidecar that under-counts — resume re-truncates the
// data file to the sidecar's byte offset, discarding the orphaned (or
// torn) tail, and re-executes from the last barrier. Records are
// deterministic, so the re-executed bytes equal the discarded ones. One
// DurableLog keeps this contract for static batches and strategy rounds
// alike.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "sim/rng.hpp"

namespace hsfi::orchestrator {

class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which of `of` shards owns a run with this seed. of <= 1 degenerates to
/// the single-process case (everything is shard 0).
[[nodiscard]] constexpr std::uint32_t shard_of(std::uint64_t seed,
                                               std::uint32_t of) noexcept {
  return of <= 1 ? 0
                 : static_cast<std::uint32_t>(sim::splitmix64(seed) % of);
}

/// The subsequence of `runs` owned by shard `k` of `n`, in index order
/// (global indices are preserved — records still carry their campaign-wide
/// "run" field).
[[nodiscard]] std::vector<RunSpec> shard_runs(const std::vector<RunSpec>& runs,
                                              std::uint32_t k,
                                              std::uint32_t n);

/// Shard file naming: "<out>.shard<k>of<n>"; n <= 1 returns `out`
/// unchanged, so single-process checkpointed runs write the final file
/// directly.
[[nodiscard]] std::string shard_path(const std::string& out, std::uint32_t k,
                                     std::uint32_t n);

/// The sidecar: where a durable campaign's output ends. `spec_digest`
/// binds it to one campaign file (fnv1a64 of the spec text). A static
/// campaign keeps one cursor over its shard's runs (a batch is a round), a
/// strategy campaign one per target, in emission order, at shard 0 of 1.
struct Checkpoint {
  struct Cursor {
    std::uint64_t rounds = 0;   ///< barriers committed
    std::uint64_t records = 0;  ///< durable records
    bool done = false;
  };
  std::uint64_t spec_digest = 0;
  std::uint32_t shard = 0;
  std::uint32_t of = 1;
  std::uint64_t bytes = 0;  ///< data-file size at the last barrier
  std::vector<Cursor> cursors;
};

[[nodiscard]] std::string checkpoint_path(const std::string& shard_file);

/// Reads the sidecar at `path` for the campaign `identity` names (spec
/// digest, shard layout, cursor count). nullopt = file absent (fresh
/// start). An unreadable sidecar, another version, or another campaign's
/// throws ShardError naming the file: none may restart a half-finished
/// campaign from zero or splice two campaigns.
[[nodiscard]] std::optional<Checkpoint> read_checkpoint(
    const std::string& path, const Checkpoint& identity);

/// Atomically replaces `path` with the sidecar as one durable JSON line:
/// write to "<path>.tmp", fsync, rename over, fsync the directory.
void write_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Append-only writer over a POSIX fd with explicit durability. Opening
/// truncates to `keep_bytes` first (crash recovery: everything past the
/// last durable checkpoint is discarded, including torn lines); the
/// caller has read that prefix, so the file holds at least that much.
class DurableAppender {
 public:
  DurableAppender(const std::string& path, std::uint64_t keep_bytes);
  ~DurableAppender();
  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  void append(std::string_view text);  ///< full write; throws ShardError
  void sync();                         ///< fsync
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::string path_;
};

/// One durable campaign's data file and sidecar, opened fresh or resumed,
/// then appended to barrier by barrier: static batches (run_sharded) and
/// strategy rounds (the campaign driver) alike.
class DurableLog {
 public:
  /// The most any cursor of the campaign can hold; a sidecar that claims
  /// more was not written by this campaign.
  struct Bound {
    std::uint64_t rounds = UINT64_MAX;
    std::uint64_t records = UINT64_MAX;
  };

  /// `fresh` is the campaign's starting checkpoint: spec digest, shard
  /// layout and one zeroed cursor per run list. A fresh open (no
  /// `resume`, or no sidecar) writes `fresh` as the sidecar, then
  /// truncates the data file. A resume validates the sidecar, checks each
  /// cursor against `bound` and the byte count, reads the vouched prefix
  /// back, and only then truncates the tail; each refusal throws
  /// ShardError naming the file, before it is touched. `timing` adds
  /// wall_ms to the records appended.
  DurableLog(std::string data_file, Checkpoint fresh, Bound bound,
             bool resume, bool timing);

  [[nodiscard]] const std::string& data_file() const noexcept {
    return data_file_;
  }
  [[nodiscard]] const Checkpoint& checkpoint() const noexcept {
    return ckpt_;
  }
  /// The records the resumed sidecar vouched for, in file order (empty
  /// after a fresh open).
  [[nodiscard]] const std::vector<RunRecord>& restored() const noexcept {
    return restored_;
  }

  /// Appends one record's JSONL line; durable at the next barrier.
  void append(const RunRecord& record);
  /// A barrier: cursor `cursor` gains one round holding the records
  /// appended since the last barrier. The data file is synced, the
  /// sidecar rewritten, and then after_barrier fires.
  void barrier(std::size_t cursor);
  /// Marks `cursor` done and rewrites the sidecar (not a barrier).
  void finish(std::size_t cursor);

  /// The crash seam: called after every barrier this log commits, with
  /// the checkpoint just written (`--crash-after-batches` kills from here).
  std::function<void(const Checkpoint&)> after_barrier;

 private:
  Checkpoint open(Checkpoint fresh, Bound bound, bool resume);
  void commit();

  std::string data_file_;
  bool timing_;
  std::vector<RunRecord> restored_;
  Checkpoint ckpt_;
  DurableAppender out_;
  std::uint64_t pending_ = 0;  ///< records appended since the last barrier
};

/// Executes `runs` (already filtered to this shard) through `runner` in
/// batches of `batch` runs (min 1), starting after the runs `log`
/// restored; each batch is appended and committed as one barrier of the
/// log's single cursor, which is then marked done. Returns the records
/// this call executed, in index order.
std::vector<RunRecord> run_sharded(Runner& runner,
                                   const std::vector<RunSpec>& runs,
                                   DurableLog& log, std::size_t batch);

/// Merges the `of` shard files of `out` (shard_path naming) into `out`
/// itself, in global index order. Every expanded run must be present in
/// exactly its owning shard's file with a matching `"run":<index>` prefix;
/// gaps (an unfinished shard), extras, or misordered records throw
/// ShardError. Returns the number of records merged. The result is
/// byte-identical to a single-process run of the same spec.
std::size_t merge_shards(const std::vector<RunSpec>& runs,
                         const std::string& out, std::uint32_t of);

}  // namespace hsfi::orchestrator
