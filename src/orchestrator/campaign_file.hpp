// Declarative campaign files: one JSON document describing a whole
// distributed campaign — targets (media under test), per-target workload
// and window overrides, fault subsets, intensity grids, and an optional
// closed-loop strategy block — loaded by `run_sweep --spec`. run_sweep's
// grid flags lower into the same CampaignFile value (lower_grid_flags),
// so one driver (adaptive::run_campaign) runs every campaign.
//
// This is the FINJ/NFTAPE campaign-config idea (see SNIPPETS: FIJ's
// config.json with global defaults overridden per target) applied to the
// simulated testbed: the file plus its base seed fully determine the
// expanded run set, so N sharded processes that load the same spec agree
// byte-for-byte on every run they partition between themselves.
//
// Parsing goes through the one strict JSON reader (json_value.hpp) and is
// louder than the record reader built on it: orchestrator::parse_jsonl skips
// unknown fields because the emitter may be newer, while a campaign file
// is operator input — an unknown or mistyped key means the operator's
// intent would be silently ignored, so it throws CampaignFileError naming
// the key instead.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nftape/campaign.hpp"
#include "nftape/medium.hpp"
#include "orchestrator/sweep.hpp"

namespace hsfi::orchestrator {

class CampaignFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The named fault axis for a medium — the axes run_sweep has always
/// offered, promoted into the library so campaign files (and any other
/// front end) resolve fault names against the same catalogue.
[[nodiscard]] std::vector<FaultPoint> standard_fault_axis(
    nftape::Medium medium);

/// 64-bit FNV-1a of `text` — the campaign file's identity. Checkpoint
/// sidecars record it so a resume against an edited spec is refused
/// instead of splicing records from two different expansions.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// The optional "strategy" block: which closed-loop strategy steers the
/// campaign and its knobs. Data only — the orchestrator does not depend on
/// src/adaptive; adaptive::run_campaign interprets it.
struct StrategySpec {
  std::string name;  ///< "bisect" | "coverage"
  nftape::Knob knob = nftape::Knob::kUdpIntervalUs;
  /// The intensity axis endpoints (same defaults as the CLI: full-capacity
  /// 12 us pace out to a 396 us trickle), inside the knob's domain: at
  /// least 0.001 us on udp-us, 0..16 on seu-bits, at least 1 on burst.
  double axis_lo = 12.0;
  double axis_hi = 396.0;
  double tolerance_us = 24.0;   ///< bisect bracket width
  std::uint32_t max_rounds = 12;
  std::uint64_t target_count = 5;  ///< coverage observations per class
};

struct CampaignFile {
  std::string name;
  std::uint64_t base_seed = 1;
  /// Runs per durable checkpoint batch in sharded execution.
  std::size_t checkpoint_batch = 8;
  /// One fully resolved sweep per target, in file order: file defaults
  /// overlaid with the target's own overrides, fault names resolved
  /// against standard_fault_axis. A target's `name` has no '/' or ':'
  /// (it prefixes run names) and is empty only for the one target of a
  /// lowered flag campaign, whose run names carry no prefix. Its
  /// `base_seed` is already derive_seed(file seed, target ordinal), so
  /// targets draw disjoint seed streams no matter how the file is sliced
  /// across processes.
  std::vector<SweepSpec> targets;
  std::optional<StrategySpec> strategy;
  /// fnv1a64 of the source text. 0 for a lowered flag campaign: with no
  /// text there is nothing for a checkpoint to bind to, so such a campaign
  /// is never checkpointed.
  std::uint64_t digest = 0;
};

struct JsonValue;

/// The longest duration a campaign file, a repro trace or run_sweep's
/// --duration-ms may name: the runner's watchdog caps a run at 8x a sum of
/// eight durations, which must stay inside the picosecond clock's range
/// (about 1.4e8 ms each). Nothing in practice comes near it.
inline constexpr double kMaxDurationMs = 1e6;

/// Strict typed reads of one field of a parsed document, shared by
/// campaign files and repro traces; each throws CampaignFileError naming
/// `ctx`, the field's JSON path. Millisecond (>= 0) and microsecond (> 0)
/// fields accept fractions, round to the nearest nanosecond, and are
/// refused beyond kMaxDurationMs (or when not finite); a microsecond field
/// that rounds to 0 ns is refused too.
[[nodiscard]] std::string field_str(const JsonValue& v, const std::string& ctx);
[[nodiscard]] double field_num(const JsonValue& v, const std::string& ctx);
[[nodiscard]] std::uint64_t field_u64(const JsonValue& v,
                                      const std::string& ctx);
[[nodiscard]] sim::Duration field_ms(const JsonValue& v,
                                     const std::string& ctx);
[[nodiscard]] sim::Duration field_us(const JsonValue& v,
                                     const std::string& ctx);

/// The "scenario" block of a campaign target, shared with repro traces: a
/// registry name ({"name": "flow-liar"}) or a named program of explicit
/// steps ({"kind", "at_ms" > 0, "node", "count" > 0}). `ctx` is the
/// block's JSON path, which errors name. Whether the steps suit the
/// medium is the caller's check. Throws CampaignFileError.
[[nodiscard]] scenario::ScenarioSpec parse_scenario(const JsonValue& block,
                                                    const std::string& ctx);

/// Parses a campaign-spec document. Schema (all *_ms / *_us fields accept
/// fractions; unknown keys anywhere are errors):
///
///   {
///     "name": "nightly",            // required
///     "seed": 1,
///     "checkpoint_batch": 8,
///     "strategy": {"name": "bisect", "knob": "udp-us",
///                  "axis_lo": 12, "axis_hi": 396, "tolerance_us": 24,
///                  "max_rounds": 12, "target_count": 5},
///     "defaults": { <target fields> },
///     "targets": [{"name": "myri", <target fields>}, ...]  // required
///   }
///
/// Target fields (each optional; target overrides defaults overrides the
/// built-in CLI sweep values): "medium" ("myrinet"|"fc"), "faults"
/// (names from standard_fault_axis; absent = the full axis), "directions"
/// (["to-switch"|"from-switch"|"both"]), "replicates", "duration_ms",
/// "warmup_ms", "drain_ms", "startup_settle_ms" (absent/0 = auto),
/// "map_period_ms" (> 0), "udp_interval_us", "burst_size", "payload_size",
/// "jitter", "program_via_serial", "grid" — a list of named intensity
/// points {"name", "udp_interval_us", "burst_size", "payload_size"}
/// defaulting to the target's resolved workload — and "scenario": a
/// protocol-misbehavior program, either a registry name
/// ({"name": "flow-liar"}) or explicit steps ({"name": "...", "steps":
/// [{"kind": "rrdy-flood", "at_ms": 1.5, "node": 0, "count": 24}, ...]});
/// step kinds must match the target's medium.
///
/// Unknown keys report their full JSON path ("targets[2].strategy.knob"),
/// so a typo deep in an overlay is findable without a diff.
[[nodiscard]] CampaignFile parse_campaign_file(std::string_view text);

/// Reads and parses `path`. Throws CampaignFileError (file missing or any
/// parse/validation failure).
[[nodiscard]] CampaignFile load_campaign_file(const std::string& path);

/// run_sweep's grid flags, before lowering. Unset and empty fields take a
/// spec target's defaults.
struct GridFlags {
  nftape::Medium medium = nftape::Medium::kMyrinet;
  std::vector<std::string> faults;  ///< --faults names; empty = full axis
  std::uint64_t seed = 1;
  std::optional<std::size_t> replicates;  ///< 0 means 1
  std::optional<sim::Duration> duration;
  std::string scenario;  ///< --scenario registry name; empty = none
  std::optional<StrategySpec> strategy;
};

/// Lowers run_sweep's grid flags into a campaign built from the same
/// defaults as a spec target: one target with an empty name (its run
/// names get no "<target>:" prefix), `seed` as its base seed verbatim and
/// `faults` in axis order — so a flag campaign's names, seeds and records
/// are byte-for-byte what the flags have always produced. Throws
/// CampaignFileError naming an unknown fault or scenario, or a scenario
/// for the other medium.
[[nodiscard]] CampaignFile lower_grid_flags(const GridFlags& flags);

/// The globally indexed run set: each target expanded in file order
/// (orchestrator::expand), indices shifted to be campaign-global, run
/// names prefixed "<target>:" (the colon keeps cell_key's
/// fault/direction grouping intact: "myri:gap-go/both"). A pure function
/// of the file, so every shard reconstructs the identical set.
[[nodiscard]] std::vector<RunSpec> expand_campaign(const CampaignFile& file);

}  // namespace hsfi::orchestrator
