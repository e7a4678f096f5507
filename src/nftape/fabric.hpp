// The medium abstraction behind the campaign stack.
//
// The paper's injector is dual-media by construction: the same FPGA
// compare/corrupt pipeline sits behind a MyriPHY or an FCPHY (Fig. 4), so
// one campaign methodology serves "both of these networks". A Fabric is
// everything the campaign runner needs from a network under test: build
// the topology with the injector spliced into one link, reach a known good
// state, program/disarm the fault taps, drive a saturating workload,
// subscribe the manifestation analyzer to its observations, and report
// counters. CampaignRunner, the orchestrator, and the adaptive controller
// all speak this interface; only the two implementations here and in
// fc_fabric.hpp know which wires exist.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/injector_config.hpp"
#include "host/traffic.hpp"
#include "nftape/campaign.hpp"
#include "nftape/medium.hpp"
#include "nftape/testbed.hpp"
#include "scenario/driver_myrinet.hpp"
#include "sim/simulator.hpp"

namespace hsfi::nftape {

/// Opaque capture of a settled fabric: the simulator event queue plus every
/// model layer's mutable state, taken at a quiescent settle boundary (after
/// start() + settle(startup)). Implementations subclass this with their
/// layer states; restore_snapshot() downcasts back. One snapshot can seed
/// any number of forked runs — restore is non-destructive.
class FabricSnapshot {
 public:
  virtual ~FabricSnapshot() = default;
};

/// One network under test with the injector spliced into one link.
///
/// Lifecycle, as CampaignRunner drives it (the order is part of the
/// determinism contract — both implementations schedule events in exactly
/// this order so JSONL stays byte-identical across worker counts):
/// construct -> start() -> settle(startup) -> per run: reset_to_known_good,
/// attach_monitors, program_fault x2, start_workload, snapshot window,
/// stop_workload, disarm_faults, settle(recovery_time), detach_monitors,
/// clear_workload.
///
/// Snapshot/fork: capture_snapshot() after the startup settle freezes the
/// whole settled state; restore_snapshot() rewinds a fabric of identical
/// construction parameters back to it, so each campaign run forks from the
/// settle boundary instead of re-simulating boot + mapping. Per-run state
/// (workload objects, subscriptions, RNG streams) is re-derived afterwards
/// by the usual reset_to_known_good(seed) call, which is what makes a
/// forked run byte-identical to a cold-started one.
class Fabric {
 public:
  virtual ~Fabric() = default;

  [[nodiscard]] virtual Medium medium() const noexcept = 0;
  [[nodiscard]] virtual sim::Simulator& sim() noexcept = 0;
  /// The construction seed (CampaignSpec.seed == 0 inherits it).
  [[nodiscard]] virtual std::uint64_t base_seed() const noexcept = 0;

  /// Boots the topology (peer seeding, mapping, staggered starts).
  virtual void start() = 0;
  /// Runs the simulation forward by `span`.
  virtual void settle(sim::Duration span) = 0;
  /// Returns to the paper's "known good state": statistics cleared, flow
  /// control and address state restored, RNG streams rewound to `seed`.
  virtual void reset_to_known_good(std::uint64_t seed) = 0;

  /// Programs `config` into the injector tap for `dir` — over the simulated
  /// RS-232 command plane when `via_serial` (the authentic NFTAPE loop), or
  /// by poking the model directly.
  virtual void program_fault(core::Direction dir,
                             const core::InjectorConfig& config,
                             bool via_serial) = 0;
  /// Turns both taps' match mode off, leaving the rest of the programmed
  /// state untouched (re-sending a zeroed config would pass through a state
  /// with the old mode armed under an all-match mask).
  virtual void disarm_faults(bool via_serial) = 0;

  /// Subscribes `analyzer` to sim()'s observation stream, on which every
  /// monitored layer reports its effects (replacing any analyzer attached
  /// before). The analyzer must outlive the subscription: pair with
  /// detach_monitors. Both realizations use these two as they are.
  virtual void attach_monitors(analysis::ManifestationAnalyzer& analyzer);
  virtual void detach_monitors();

  /// Creates and starts the saturating workload: one paced flood per
  /// flow_plan(nodes, seed) flow, sending UDP datagrams or FC-2 sequences.
  /// Delivered-but-corrupted payloads are observed as kPayloadCorrupted
  /// (the taxonomy's worst class — nothing upstream noticed). `analyzer` is
  /// unused (the stream reaches it); it stays until the campaign
  /// benchmark's wrapper, which overrides this signature, drops it too
  /// (ROADMAP).
  virtual void start_workload(const WorkloadSpec& workload, std::uint64_t seed,
                              analysis::ManifestationAnalyzer& analyzer) = 0;
  virtual void stop_workload() = 0;
  /// Destroys the workload objects (their counters feed snapshot(), so the
  /// runner clears only after the final snapshot).
  virtual void clear_workload() = 0;

  /// Installs the scenario driver's protocol hooks and schedules `spec`'s
  /// steps relative to now (the runner arms at the measurement-window
  /// start, so step.at offsets land inside the window). Firings are
  /// observed as kScenarioStep, which the analyzer counts as injections,
  /// and surface as FabricCounters.scenario_steps. `analyzer` is unused,
  /// as in start_workload.
  virtual void arm_scenario(const scenario::ScenarioSpec& spec,
                            std::uint64_t seed,
                            analysis::ManifestationAnalyzer& analyzer) = 0;
  /// Uninstalls the hooks and neutralizes unfired steps. Idempotent.
  virtual void disarm_scenario() = 0;

  [[nodiscard]] virtual FabricCounters snapshot() const = 0;
  /// Total symbols transmitted across every link segment since
  /// construction (monotonic; callers diff two readings for a window).
  [[nodiscard]] virtual std::uint64_t symbols_sent() const noexcept = 0;
  /// How long after disarming the medium needs to re-reach the known good
  /// state (Myrinet: one mapping round; FC: in-flight drain).
  [[nodiscard]] virtual sim::Duration recovery_time() const = 0;

  /// Captures the full settled state (simulator + every model layer). Call
  /// only at a quiescent settle boundary — never with a workload or serial
  /// command in flight. Every fabric supports snapshots.
  [[nodiscard]] virtual std::unique_ptr<FabricSnapshot> capture_snapshot() = 0;
  /// Rewinds this fabric to `snap` (which must come from a fabric built
  /// with identical construction parameters — same TestbedConfig modulo
  /// seed, which reset_to_known_good re-derives per run).
  virtual void restore_snapshot(const FabricSnapshot& snap) = 0;

 private:
  analysis::ManifestationAnalyzer* monitor_ = nullptr;
};

/// The Fig. 10 Myrinet testbed behind the Fabric interface: the UDP
/// flood/sink workload, scenario driver and counter snapshots.
class MyrinetFabric final : public Fabric {
 public:
  explicit MyrinetFabric(TestbedConfig config);

  [[nodiscard]] Testbed& bed() noexcept { return bed_; }

  [[nodiscard]] Medium medium() const noexcept override {
    return Medium::kMyrinet;
  }
  [[nodiscard]] sim::Simulator& sim() noexcept override { return bed_.sim(); }
  [[nodiscard]] std::uint64_t base_seed() const noexcept override;
  void start() override { bed_.start(); }
  void settle(sim::Duration span) override { bed_.settle(span); }
  void reset_to_known_good(std::uint64_t seed) override {
    bed_.reset_to_known_good(seed);
  }
  void program_fault(core::Direction dir, const core::InjectorConfig& config,
                     bool via_serial) override {
    bed_.board().program_fault(dir, config, via_serial);
  }
  void disarm_faults(bool via_serial) override {
    bed_.board().disarm_faults(via_serial);
  }
  void start_workload(const WorkloadSpec& workload, std::uint64_t seed,
                      analysis::ManifestationAnalyzer& analyzer) override;
  void stop_workload() override;
  void clear_workload() override;
  void arm_scenario(const scenario::ScenarioSpec& spec, std::uint64_t seed,
                    analysis::ManifestationAnalyzer& analyzer) override;
  void disarm_scenario() override;
  [[nodiscard]] FabricCounters snapshot() const override;
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept override {
    return bed_.symbols_sent();
  }
  [[nodiscard]] sim::Duration recovery_time() const override;
  [[nodiscard]] std::unique_ptr<FabricSnapshot> capture_snapshot() override;
  void restore_snapshot(const FabricSnapshot& snap) override;

 private:
  Testbed bed_;
  std::vector<std::unique_ptr<host::UdpSink>> sinks_;
  std::vector<std::unique_ptr<host::UdpFlood>> floods_;
  std::unique_ptr<scenario::MyrinetScenarioDriver> scenario_driver_;
};

/// One flow of the campaign workload: node `src` floods node `dst`, its
/// pacing jitter drawn from Rng(seed, stream). On Myrinet the stream is
/// also the datagrams' source port.
struct Flow {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t seed = 0;
  std::uint16_t stream = 0;
};

/// The workload's flows on `nodes` nodes, in the order both media build
/// and start them: every ordered pair of distinct nodes, source-major, each
/// with its own seed derived from the run's `seed`.
[[nodiscard]] std::vector<Flow> flow_plan(std::size_t nodes,
                                          std::uint64_t seed);

/// True when `payload` has the workload's size and host::kPayloadFill.
/// Both media check every delivered payload with it: a delivery that passed
/// every protocol check but fails this was corrupted in flight with nothing
/// upstream noticing (the taxonomy's worst class).
[[nodiscard]] bool payload_intact(std::size_t payload_size,
                                  std::span<const std::uint8_t> payload);

/// Builds the fabric realization for `medium` from one medium-neutral
/// config — the orchestrator's per-run construction point.
[[nodiscard]] std::unique_ptr<Fabric> make_fabric(Medium medium,
                                                  const TestbedConfig& config);

}  // namespace hsfi::nftape
