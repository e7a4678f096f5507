// Fixed-bucket histograms over simulated-time durations.
//
// Everything here is driven by simulated-time records (the sim::TraceLog
// discipline), never wall clocks, so a campaign's histograms are identical
// regardless of worker count or host machine — the property every other
// campaign artifact (JSONL, reports) already has. Buckets are fixed at
// construction, so render() output is stable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hsfi::analysis {

/// Fixed-bound histogram of simulated durations. Bounds are inclusive
/// upper edges in ascending order; values above the last bound land in an
/// implicit overflow bucket.
class Histogram {
 public:
  /// Default: decade buckets from 1 us to 100 ms — wide enough to span
  /// injector pipeline latency (~250 ns rounds into the first bucket) up
  /// to the switch's ~50 ms long-period timeout.
  Histogram();
  explicit Histogram(std::vector<sim::Duration> bounds);

  void add(sim::Duration value);
  /// Accumulates another histogram with identical bounds into this one.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] sim::Duration sum() const noexcept { return sum_; }
  [[nodiscard]] sim::Duration min() const noexcept { return min_; }
  [[nodiscard]] sim::Duration max() const noexcept { return max_; }
  /// Buckets are bounds().size() + 1 entries; the last is the overflow.
  [[nodiscard]] const std::vector<sim::Duration>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

  /// One line per non-empty bucket, e.g. "  <= 1 us: 12".
  [[nodiscard]] std::string render() const;

  void clear();

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::vector<sim::Duration> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  sim::Duration sum_ = 0;
  sim::Duration min_ = 0;
  sim::Duration max_ = 0;
};

}  // namespace hsfi::analysis
