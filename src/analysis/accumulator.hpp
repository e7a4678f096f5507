// Cheap per-cell accumulation of campaign results.
//
// Every finished run folds into its fault × direction cell: the per-cell
// report (orchestrator::cell_summary) and the live monitor
// (monitor::MonitorService) both keep one CellStats per cell, folded by
// orchestrator::fold_run. Deliberately minimal — plain counters plus the
// merged latency histogram — so a fold costs nothing next to a single run.
#pragma once

#include <cstdint>

#include "analysis/manifestation.hpp"
#include "analysis/metrics.hpp"

namespace hsfi::analysis {

/// Cumulative totals for one cell. Folding is commutative and associative
/// (plain counter sums plus a bucket-wise histogram merge), so a cell built
/// record-by-record, in any order, or merged from per-shard partials is
/// bit-identical to one folded in a single batch — the property the
/// streaming monitor relies on.
struct CellStats {
  std::uint64_t runs = 0;        ///< runs folded in
  std::uint64_t ok_runs = 0;     ///< runs that completed (outcome ok)
  std::uint64_t injections = 0;  ///< injector firings across ok runs
  std::uint64_t duplicates = 0;  ///< surplus deliveries across ok runs
  ManifestationBreakdown manifestations;
  Histogram latency;             ///< merged firing -> first-effect delays

  /// Folds one run in. Counters only accumulate for ok runs (a timed-out
  /// run has no trustworthy counters), but `runs` counts every attempt so
  /// rates stay honest about failed work.
  void fold(bool ok, const ManifestationBreakdown& breakdown,
            std::uint64_t run_injections, std::uint64_t run_duplicates,
            const Histogram* run_latency = nullptr);

  /// Accumulates another cell's totals (shard merge). Histograms must share
  /// bounds, the same precondition as Histogram::merge.
  void merge(const CellStats& other);

  /// Firings with any observable downstream effect (everything but
  /// masked). The breakdown sums to `injections`, so this is the
  /// numerator of the cell's manifestation rate.
  [[nodiscard]] std::uint64_t manifested() const noexcept {
    return manifestations.total() -
           manifestations[Manifestation::kMasked];
  }

  friend bool operator==(const CellStats&, const CellStats&) = default;
};

}  // namespace hsfi::analysis
