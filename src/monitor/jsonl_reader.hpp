// The out-of-process leg of the streaming analysis plane: a campaign shard
// writes one record per line (orchestrator::to_jsonl), and a monitor on the
// other side of the file tails it and folds each record into its cells.
//
// Lines are read back by orchestrator::parse_jsonl, the same field list
// that wrote them, so anything it rejects — a torn write, a bare word, a
// duplicate key, a raw control character, an unknown outcome — is rejected
// here too, never half-ingested: a torn line at the tail of a live file
// cannot corrupt cell totals.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "orchestrator/runner.hpp"

namespace hsfi::monitor {

/// Incremental reader for a live JSONL file: each poll() picks up where the
/// last one stopped, delivers every newly completed line's record, and
/// holds any trailing partial line until the writer finishes it.
class JsonlTailer {
 public:
  explicit JsonlTailer(std::string path) : path_(std::move(path)) {}

  /// Reads newly appended complete lines and invokes `deliver` per parsed
  /// record, in file order (latency histograms empty: JSONL has none).
  /// Returns the number delivered. Lines that fail to parse are counted in
  /// malformed() and dropped. A missing file is
  /// not an error (the shard may not have started yet) — returns 0.
  /// A file shorter than the saved offset means the writer truncated or
  /// rotated it: the tailer restarts from byte 0, drops the torn-line
  /// carry from the old incarnation, and counts it in truncations().
  std::size_t poll(
      const std::function<void(const orchestrator::RunRecord&)>& deliver);

  [[nodiscard]] std::uint64_t malformed() const noexcept { return malformed_; }
  /// Times the file shrank under the tailer (truncation or rotation-in-
  /// place); each one restarted the offset so tailing resumed.
  [[nodiscard]] std::uint64_t truncations() const noexcept {
    return truncations_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
  std::string partial_;
  std::uint64_t malformed_ = 0;
  std::uint64_t truncations_ = 0;
};

}  // namespace hsfi::monitor
