#include "analysis/accumulator.hpp"

namespace hsfi::analysis {

void CellStats::fold(bool ok, const ManifestationBreakdown& breakdown,
                     std::uint64_t run_injections,
                     std::uint64_t run_duplicates,
                     const Histogram* run_latency) {
  ++runs;
  if (!ok) return;
  ++ok_runs;
  injections += run_injections;
  duplicates += run_duplicates;
  manifestations += breakdown;
  if (run_latency != nullptr) latency.merge(*run_latency);
}

void CellStats::merge(const CellStats& other) {
  runs += other.runs;
  ok_runs += other.ok_runs;
  injections += other.injections;
  duplicates += other.duplicates;
  manifestations += other.manifestations;
  latency.merge(other.latency);
}

}  // namespace hsfi::analysis
