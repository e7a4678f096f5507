// Closed-loop campaign strategies: what to run next, given what the
// monitors observed so far.
//
// The paper's architecture is *adaptive* because the RS-232 command plane
// can reconfigure the injector at run time based on monitor readouts; the
// evaluation methodology ("dial the injector until faults manifest") is a
// human playing exactly this role. A Strategy mechanizes it, FINJ-style:
// the controller executes one batch of runs per round on the orchestrator
// pool, feeds the per-run manifestation breakdowns back, and the strategy
// emits the next batch — until it declares convergence.
//
// Determinism contract: next_round() must be a pure function of the
// construction config and the preceding observe() history. Observations
// themselves are deterministic (worker-count-independent results, batch
// barriers between rounds), so an adaptive campaign is as replayable as a
// static grid.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/manifestation.hpp"

namespace hsfi::adaptive {

/// One fault × direction cell of the campaign plane (indices into its
/// orchestrator::fault_axis / orchestrator::direction_axis).
struct Cell {
  std::uint32_t fault = 0;
  std::uint32_t direction = 0;
  friend bool operator==(const Cell&, const Cell&) = default;
};

/// One run a strategy asks for: which cell, at what value of the
/// campaign's tunable knob (see nftape::Knob). The controller assigns the
/// replicate ordinal — the request's position within its cell for the
/// round — so the seed key (round, cell, replicate) never depends on how
/// requests are interleaved across cells.
struct RunRequest {
  Cell cell;
  double knob_value = 0.0;
};

/// Round-barrier feedback, one per request, in request order.
struct Observation {
  RunRequest request;
  std::uint32_t round = 0;
  bool ok = false;  ///< run completed (RunOutcome::kOk)
  std::uint64_t injections = 0;
  std::uint64_t duplicates = 0;
  analysis::ManifestationBreakdown manifestations;

  /// Firings with an observable downstream effect (anything but masked).
  [[nodiscard]] std::uint64_t manifested() const noexcept {
    return manifestations.total() -
           manifestations[analysis::Manifestation::kMasked];
  }
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Stable tag stamped into every JSONL record ("bisect", "coverage",
  /// ...). User-supplied names pass through json_escape, so
  /// any byte string is safe; keep it short and path-like for readability.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The next batch of runs. Empty = converged; the controller stops.
  [[nodiscard]] virtual std::vector<RunRequest> next_round(
      std::uint32_t round) = 0;

  /// Feedback for the finished round, in request order. Called exactly
  /// once per non-empty next_round(), after the batch barrier.
  virtual void observe(const std::vector<Observation>& results) = 0;

  /// Mid-batch streaming feedback in live mode
  /// (ControllerConfig::early_cancel): one finished run of the current
  /// round, delivered in *completion* order while the round is still
  /// executing. Returns true when the remaining runs of the observation's
  /// cell this round have become redundant; the controller then skips
  /// them at dequeue.
  ///
  /// Determinism contract: implementations keep their streaming scratch
  /// separate from the observe() history — next_round() resets it and the
  /// barrier-path state never reads it — and a true verdict must never
  /// change the decision observe() would reach at the barrier (cancel only
  /// what is already resolved). Default: no opinion.
  [[nodiscard]] virtual bool observe_streaming(const Observation& obs) {
    (void)obs;
    return false;
  }
};

// ---------------------------------------------------------------------------
// Threshold bisection: binary-search the masked -> manifested transition.

struct BisectionConfig {
  /// Knob search range (inclusive). The axis must be (stochastically)
  /// monotone: one end of the range manifests, the other masks.
  double lo = 0.0;
  double hi = 1.0;
  /// Stop once the bracket around the threshold is at most this wide (in
  /// knob units). 0 = (hi - lo) / 64.
  double tolerance = 0.0;
  /// true: larger knob values are more intense (more manifestations) —
  /// e.g. burst size. false: smaller values are more intense — e.g.
  /// kUdpIntervalUs (faster traffic) and kSeuLfsrBits (rarer trigger).
  bool higher_is_more_intense = true;
  /// Probes per tested knob value (same value, distinct replicate seeds).
  std::size_t replicates = 1;
  /// A value "manifests" when the probes' summed manifested firings reach
  /// this count. >1 rejects single-firing flukes near the threshold.
  std::uint64_t min_manifested = 1;
};

/// Per-cell search outcome.
struct CellThreshold {
  /// Threshold bracket in knob units: the transition lies between
  /// masked_at (no manifestation observed) and manifested_at. When the
  /// whole range manifests, masked_at is NaN; when none of it does,
  /// manifested_at is NaN and `found` is false.
  double masked_at = 0.0;
  double manifested_at = 0.0;
  bool found = false;
  bool converged = false;  ///< bracket width <= tolerance
  std::size_t runs = 0;    ///< probes spent on this cell
  /// Midpoint estimate (meaningful when found && converged).
  [[nodiscard]] double estimate() const noexcept {
    return (masked_at + manifested_at) / 2.0;
  }
};

/// Replicates the paper's "dial the injector until faults manifest"
/// methodology in O(log(range/tolerance)) probes per cell instead of a
/// full grid: round 0 probes both endpoints of every cell's range, then
/// each subsequent round probes the bracket midpoint of every still-open
/// cell (all cells advance in the same batch, so rounds stay wide and the
/// pool stays busy).
class BisectionStrategy final : public Strategy {
 public:
  BisectionStrategy(std::vector<Cell> cells, BisectionConfig config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "bisect";
  }
  [[nodiscard]] std::vector<RunRequest> next_round(
      std::uint32_t round) override;
  void observe(const std::vector<Observation>& results) override;
  /// True once the cell's streaming manifested sum reaches min_manifested
  /// in a midpoint round — the probe verdict is already decided, so the
  /// remaining replicates are redundant. Round 0 never cancels: its two
  /// endpoint probes share the cell and the low endpoint still needs data.
  [[nodiscard]] bool observe_streaming(const Observation& obs) override;

  [[nodiscard]] const std::vector<CellThreshold>& thresholds() const noexcept {
    return thresholds_;
  }
  /// Resolved tolerance (the config's, or the (hi-lo)/64 default).
  [[nodiscard]] double tolerance() const noexcept { return tolerance_; }
  /// Probes an exhaustive grid at this tolerance would need per cell —
  /// the baseline bench_adaptive compares against.
  [[nodiscard]] std::size_t grid_equivalent_runs_per_cell() const noexcept;

 private:
  /// Search state in intensity space t ∈ [0, 1] (t = 1 most intense);
  /// value() maps t back to knob units respecting the axis direction.
  struct CellState {
    double t_masked = 0.0;      ///< highest t known to mask
    double t_manifested = 1.0;  ///< lowest t known to manifest
    bool have_masked = false;
    bool have_manifested = false;
    bool done = false;
    std::size_t runs = 0;
  };
  [[nodiscard]] double value(double t) const noexcept;
  [[nodiscard]] double width(const CellState& s) const noexcept;
  void finish(std::size_t cell_index);

  BisectionConfig config_;
  double tolerance_ = 0.0;
  std::vector<Cell> cell_list_;
  std::vector<CellState> cells_;
  std::vector<CellThreshold> thresholds_;
  /// (cell index, t) of the probes issued this round, in request order.
  std::vector<std::pair<std::size_t, double>> pending_;
  /// Streaming scratch: per-cell manifested sum of the in-flight round.
  /// Reset by next_round(), never read by the barrier path.
  std::vector<std::uint64_t> streaming_manifested_;
};

// ---------------------------------------------------------------------------
// Coverage-driven exploration: replicate where rare classes still lack data.

struct CoverageConfig {
  /// Knob value every exploration run uses (coverage varies *where* runs
  /// go, not the intensity).
  double knob_value = 0.0;
  /// Stop chasing a class in a cell once it has been observed this often.
  std::uint64_t target_count = 5;
  /// Runs allocated per open cell per round.
  std::size_t batch_replicates = 2;
  /// Wilson-based stopping: once a cell has at least `min_injections`
  /// firings and the Wilson 95% upper bound on an unsatisfied class's rate
  /// is below `hopeless_rate`, the class is declared unreachable for this
  /// fault and stops holding the cell open. Without this, a class a fault
  /// physically cannot produce (misrouted from a payload-only corruption)
  /// would absorb replicates forever.
  std::uint64_t min_injections = 256;
  double hopeless_rate = 0.01;
};

/// Per-cell, per-class coverage verdict.
enum class ClassCoverage : std::uint8_t {
  kOpen,       ///< below target, plausibly reachable — keep allocating
  kSatisfied,  ///< target_count observations reached
  kHopeless,   ///< Wilson upper bound < hopeless_rate at min_injections
};

/// Allocates replicates to the cells whose manifestation classes are still
/// under-observed, so rare classes (misrouted, mapping_disruption) get
/// runs instead of re-confirming masked ones.
class CoverageStrategy final : public Strategy {
 public:
  CoverageStrategy(std::vector<Cell> cells, CoverageConfig config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "coverage";
  }
  [[nodiscard]] std::vector<RunRequest> next_round(
      std::uint32_t round) override;
  void observe(const std::vector<Observation>& results) override;
  /// True once the cell would no longer be open given the committed counts
  /// plus the streaming results of the in-flight round — every class is
  /// satisfied or hopeless, so the cell's remaining replicates this round
  /// buy nothing.
  [[nodiscard]] bool observe_streaming(const Observation& obs) override;

  /// Coverage verdict for (cell, class) given the data so far.
  [[nodiscard]] ClassCoverage coverage(std::size_t cell_index,
                                       analysis::Manifestation m) const;
  [[nodiscard]] bool cell_open(std::size_t cell_index) const;
  [[nodiscard]] std::uint64_t class_count(std::size_t cell_index,
                                          analysis::Manifestation m) const;
  [[nodiscard]] std::uint64_t cell_injections(
      std::size_t cell_index) const noexcept {
    return cells_[cell_index].injections;
  }

 private:
  struct CellState {
    std::uint64_t injections = 0;
    analysis::ManifestationBreakdown counts;
  };
  [[nodiscard]] std::size_t index_of(const Cell& cell) const;

  CoverageConfig config_;
  std::vector<Cell> cell_list_;
  std::vector<CellState> cells_;
  /// Streaming scratch atop the committed counts, for the in-flight round
  /// only. Reset by next_round(), never read by the barrier path.
  std::vector<CellState> streaming_;
};

}  // namespace hsfi::adaptive
