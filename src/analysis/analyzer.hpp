// Follows each injector firing to its downstream effect.
//
// The analyzer subscribes to the simulator's observation stream and reads
// two deterministic streams out of it, in simulated time: injections (the
// device's trigger, paper §3.3, and scenario steps) and effects (a monitor
// downstream saw a failure: a NIC counted a CRC or marker error, a host
// dropped a misaddressed frame, the switch reclaimed a held path, the
// mapper announced a damaged map, a sink received a corrupted payload).
// evidence() is the one table from observed kinds to taxonomy classes;
// trace points are neither and never reach the analysis. finalize() then
// classifies every firing inside the measurement window into exactly one
// Manifestation class by chronological correlation: each injection claims
// the earliest unclaimed observation at or after it within the correlation
// window; firings that claim nothing were masked. Observations no firing
// claims are secondary effects (one firing can cascade: a single lost GAP
// merges packets, overflows slack, and times the path out) and are
// reported separately so nothing is double-counted against the injection
// total.
//
// Determinism: both streams are produced by the single-threaded simulation
// core, so record order and timestamps are a pure function of the run's
// seed — the analysis is byte-identical across worker counts, like every
// other campaign artifact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/manifestation.hpp"
#include "analysis/metrics.hpp"
#include "sim/observation.hpp"
#include "sim/time.hpp"

namespace hsfi::analysis {

/// What one observed kind is to the analyzer: a firing, an effect of class
/// `what`, or neither (a trace point).
struct Evidence {
  enum class Role : std::uint8_t { kNone, kInjection, kEffect };
  Role role = Role::kNone;
  Manifestation what = Manifestation::kMasked;
};

/// The kind table: the only place an observation becomes a class.
[[nodiscard]] Evidence evidence(sim::Observed kind) noexcept;

class ManifestationAnalyzer final : public sim::Observer {
 public:
  struct Config {
    /// How long after a firing an effect may surface and still be
    /// attributed to it. Must cover the slowest effect path — the switch's
    /// long-period timeout (~50 ms at 80 MB/s) — plus delivery slop.
    sim::Duration correlation_window = sim::milliseconds(60);
    /// Observations of the same class from the same source closer together
    /// than this are one episode (a slack overflow drops symbols at line
    /// rate; counting each symbol would manufacture thousands of
    /// "effects" from one firing). 0 disables coalescing.
    sim::Duration coalesce_interval = sim::microseconds(1);
  };

  struct Outcome {
    ManifestationBreakdown breakdown;
    /// Observations no firing claimed: cascade effects beyond the first,
    /// plus background noise present without any injection.
    std::uint64_t secondary_effects = 0;
    /// Firing -> first-effect delay for every non-masked firing.
    Histogram latency;
  };

  ManifestationAnalyzer();
  explicit ManifestationAnalyzer(Config config);

  // A simulator holds a subscribed analyzer by address.
  ManifestationAnalyzer(const ManifestationAnalyzer&) = delete;
  ManifestationAnalyzer& operator=(const ManifestationAnalyzer&) = delete;

  /// Stream entry: injections go to record_injection, effects to
  /// record_observation with their evidence() class. The source is the
  /// emitter, (where, unit) numbered by first appearance: the analysis
  /// compares sources only for equality.
  void on_observation(const sim::Observation& o) override;

  /// Records one injector firing ("windows actually corrupted").
  void record_injection(sim::SimTime when);

  /// Records one downstream effect. `source` distinguishes monitors (NIC
  /// index, switch port, ...) so coalescing never merges simultaneous
  /// effects seen at different places.
  void record_observation(sim::SimTime when, Manifestation what,
                          std::uint32_t source = 0);

  [[nodiscard]] std::size_t injections_recorded() const noexcept {
    return injections_.size();
  }
  [[nodiscard]] std::size_t observations_recorded() const noexcept {
    return observations_.size();
  }

  /// Classifies the firings with window_begin < t <= window_end (matching
  /// the campaign's before/after counter snapshots, which settle through
  /// window_begin before reading). `expected_injections` is the campaign's
  /// authoritative firing count from the device's own statistics; firings
  /// whose timestamps were not seen (or were filtered) are classified
  /// kMasked so the breakdown always sums to it exactly.
  [[nodiscard]] Outcome finalize(sim::SimTime window_begin,
                                 sim::SimTime window_end,
                                 std::uint64_t expected_injections) const;

  void clear();

 private:
  struct Observation {
    sim::SimTime when = 0;
    Manifestation what = Manifestation::kMasked;
    std::uint32_t source = 0;
  };

  [[nodiscard]] std::uint32_t source_of(std::string_view where,
                                       std::uint32_t unit);

  Config config_;
  std::vector<sim::SimTime> injections_;
  std::vector<Observation> observations_;
  /// Emitters seen so far; an emitter's source is its index.
  std::vector<std::pair<std::string, std::uint32_t>> emitters_;
};

}  // namespace hsfi::analysis
