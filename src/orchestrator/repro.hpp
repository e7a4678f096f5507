// Replayable reproducer traces: the minimizer's output artifact.
//
// When `run_sweep --emit-repro` finishes minimizing a misbehavior scenario,
// it writes one JSON document holding everything needed to re-execute the
// minimal run byte-deterministically on any machine: medium, seed, window
// and workload shape, the (minimized) step sequence, the manifestation
// class it must reproduce, and the exact JSONL record the emitting run
// produced. `run_sweep --replay trace.json` rebuilds the identical RunSpec,
// executes it, and compares its JSONL line against the stored one — a
// byte-level equality check, not a statistical one. Both commands live
// here, beside the trace they write and read.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nftape/campaign.hpp"
#include "nftape/medium.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/scenario.hpp"

namespace hsfi::orchestrator {

/// The signature the minimizer preserves: the highest-count non-masked
/// manifestation class of a run, named in severity order (ties keep the
/// less severe class, matching all_manifestations() order). Empty when
/// nothing manifested — the "did not reproduce" signal.
[[nodiscard]] std::string dominant_class(const nftape::CampaignResult& result);

struct ReproTrace {
  std::string name;  ///< run name, also the replayed campaign's name
  nftape::Medium medium = nftape::Medium::kMyrinet;
  std::uint64_t seed = 0;
  /// Fault from standard_fault_axis programmed alongside the scenario;
  /// empty = fault-free baseline.
  std::string fault;
  FaultDirection direction = FaultDirection::kBoth;
  sim::Duration warmup = sim::milliseconds(10);
  sim::Duration duration = sim::milliseconds(60);
  sim::Duration drain = sim::milliseconds(10);
  sim::Duration udp_interval = sim::microseconds(12);
  std::size_t payload_size = 256;
  std::size_t burst_size = 4;
  double jitter = 0.5;
  scenario::ScenarioSpec scenario;
  /// dominant_class of the emitting run — what a replay must reproduce.
  std::string expect;
  /// The emitting run's full JSONL record; a replay must match it byte for
  /// byte (the sorted-JSONL determinism contract, applied to one run).
  std::string jsonl;
};

/// Serializes the trace as one JSON document (trailing newline included).
[[nodiscard]] std::string to_json(const ReproTrace& trace);

/// Strict parse (same house rules as campaign files: unknown keys are
/// errors with their full JSON path). Throws CampaignFileError.
[[nodiscard]] ReproTrace parse_repro_trace(std::string_view text);

/// Reads and parses `path`. Throws CampaignFileError.
[[nodiscard]] ReproTrace load_repro_trace(const std::string& path);

/// `run_sweep --emit-repro`: runs `sweep`'s first fault (a fault-free
/// baseline unless `fault_filtered`) once on both directions, delta-debugs
/// its scenario down to the smallest program that still manifests the
/// same dominant class — probes fork from one settled snapshot — verifies
/// that program on a cold fabric and writes the trace to `path`. With
/// `dry_run` it prints the reference run and executes nothing. Progress
/// goes to stderr; returns the exit code (0 = trace written).
int emit_repro(SweepSpec sweep, bool fault_filtered, const std::string& path,
               bool dry_run);

/// `run_sweep --replay`: rebuilds the trace's run through
/// lower_grid_flags, executes it and compares its record with the stored
/// one byte for byte. Returns 0 when identical, 2 when it diverged and 1
/// when the trace cannot be loaded.
int replay_repro(const std::string& path);

}  // namespace hsfi::orchestrator
