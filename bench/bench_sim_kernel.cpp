// Kernel throughput benchmark: the harness's standard scenario set, one
// process, stable JSON output for cross-commit regression tracking.
//
//   ./build/bench/bench_sim_kernel --out BENCH_sim_kernel.json
//   ./build/bench/bench_sim_kernel --reps 1 --smoke --out smoke.json   # CI lane
//
// Scenarios mirror the standalone result-reproduction benches (passthrough,
// sec431 throughput, seu sweep, manifestations) but measure the one thing
// those don't: simulation events per wall second, the number every campaign
// in the paper's tables is bounded by. Each scenario is deterministic — the
// harness fails the run if an event count differs between repetitions, or
// if a scenario throws: a failed campaign run, or an A/B pair whose arms
// executed different event counts. The A/B wall-clock budgets (5%
// overhead, 1.5x fork speedup) are reported but gate nothing: a breach
// records 0 events for that repetition.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "host/traffic.hpp"
#include "monitor/service.hpp"
#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/scenario.hpp"

using namespace hsfi;
using myrinet::ControlSymbol;

namespace {

/// Throws unless every run finished ok; returns their summed events.
std::uint64_t events_of(const char* scenario,
                        const std::vector<orchestrator::RunRecord>& records) {
  std::uint64_t events = 0;
  for (const auto& r : records) {
    if (r.outcome != orchestrator::RunOutcome::kOk) {
      throw std::runtime_error(
          std::string(scenario) + " run " + std::to_string(r.index) + ": " +
          std::string(orchestrator::to_string(r.outcome)) + " " + r.error);
    }
    events += r.result.events_executed;
  }
  return events;
}

/// Throws when the two arms of an A/B pair executed different event
/// counts: the difference under test perturbed the simulation.
void require_same_events(const char* scenario, const char* what,
                         std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    throw std::runtime_error(std::string(scenario) + ": " + what + " (" +
                             std::to_string(a) + " vs " + std::to_string(b) +
                             " events)");
  }
}

nftape::TestbedConfig standard_testbed() {
  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(100);
  config.nic_config.rx_processing_time = sim::microseconds(1);
  config.send_stack_time = sim::microseconds(1);
  return config;
}

/// §3.5 pass-through: UDP flood across the spliced injector at ~98% of the
/// 80 MB/s line rate. The hottest configuration of the channel/device path.
std::uint64_t scenario_passthrough(bool smoke) {
  nftape::Testbed bed(standard_testbed());
  bed.start();
  bed.settle(sim::milliseconds(150));

  host::UdpSink sink(bed.host(1), 9);
  host::UdpFlood::Config fc;
  fc.target = 2;  // node 1, across the injected link
  fc.interval = sim::microseconds(7);
  fc.payload_size = 512;
  host::UdpFlood flood(bed.sim(), bed.host(0), fc);
  flood.start();
  bed.settle(sim::milliseconds(smoke ? 40 : 200));
  flood.stop();
  bed.settle(sim::milliseconds(10));
  return bed.sim().executed_events();
}

/// §4.3.1 normal-condition throughput: all-to-all bursty floods through the
/// switch — exercises arbitration, slack buffers, and flow control.
std::uint64_t scenario_sec431(bool smoke) {
  auto config = standard_testbed();
  config.nic_config.rx_processing_time = sim::microseconds(2);
  nftape::Testbed bed(config);
  bed.start();
  bed.settle(sim::milliseconds(150));

  std::vector<std::unique_ptr<host::UdpSink>> sinks;
  for (std::size_t i = 0; i < 3; ++i) {
    sinks.push_back(std::make_unique<host::UdpSink>(bed.host(i), 9));
  }
  std::vector<std::unique_ptr<host::UdpFlood>> floods;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      host::UdpFlood::Config fc;
      fc.target = static_cast<host::HostId>(j + 1);
      fc.interval = sim::microseconds(12);
      fc.payload_size = 256;
      fc.burst_size = 4;
      fc.jitter = 0.5;
      fc.seed = 40 + i * 8 + j;
      fc.src_port = static_cast<std::uint16_t>(5000 + i * 8 + j);
      floods.push_back(
          std::make_unique<host::UdpFlood>(bed.sim(), bed.host(i), fc));
    }
  }
  for (auto& f : floods) f->start();
  bed.settle(sim::milliseconds(smoke ? 30 : 150));
  for (auto& f : floods) f->stop();
  bed.settle(sim::milliseconds(10));
  return bed.sim().executed_events();
}

/// §3.1 SEU-rate sweep through the orchestrator worker pool; events are the
/// sum over the expanded runs (each run reports its own deterministic
/// count, so the total is worker-count independent).
std::uint64_t scenario_seu_sweep(bool smoke) {
  orchestrator::SweepSpec sweep;
  sweep.name = "seu";
  sweep.testbed = standard_testbed();
  sweep.base.warmup = sim::milliseconds(10);
  sweep.base.duration = sim::milliseconds(smoke ? 20 : 60);
  sweep.base.drain = sim::milliseconds(10);
  sweep.base.workload.udp_interval = sim::microseconds(20);
  sweep.base.workload.payload_size = 128;
  sweep.directions = {orchestrator::FaultDirection::kBoth};
  const std::uint16_t masks[] = {0x0FFF, 0x03FF, 0x00FF};
  const std::size_t points = smoke ? 1 : 3;
  for (std::size_t i = 0; i < points; ++i) {
    sweep.faults.push_back({nftape::cell("seu-%04X", masks[i]),
                            nftape::random_bit_flip_seu(masks[i]), ""});
  }
  return events_of("seu_sweep",
                   orchestrator::Runner().run_all(orchestrator::expand(sweep)));
}

/// Manifestation-analysis campaigns on one shared testbed: the monitor-hook
/// and analyzer overhead on top of the §4.3 fault classes.
std::uint64_t scenario_manifestations(bool smoke) {
  nftape::Testbed bed(standard_testbed());
  bed.start();
  bed.settle(sim::milliseconds(150));
  nftape::CampaignRunner runner(bed);

  const struct {
    const char* name;
    core::InjectorConfig config;
  } rows[] = {
      {"seu-00FF", nftape::random_bit_flip_seu(0x00FF)},
      {"gap->idle", nftape::control_symbol_corruption(ControlSymbol::kGap,
                                                      ControlSymbol::kIdle)},
  };
  const std::uint64_t begin = bed.sim().executed_events();
  for (const auto& row : rows) {
    nftape::CampaignSpec spec;
    spec.name = row.name;
    spec.warmup = sim::milliseconds(10);
    spec.duration = sim::milliseconds(smoke ? 20 : 80);
    spec.drain = sim::milliseconds(10);
    spec.workload.udp_interval = sim::microseconds(12);
    spec.workload.payload_size = 256;
    spec.workload.burst_size = 4;
    spec.workload.jitter = 0.5;
    spec.fault_to_switch = row.config;
    spec.fault_from_switch = row.config;
    (void)runner.run(spec);
  }
  return bed.sim().executed_events() - begin;
}

/// Live-monitor overhead A/B: the same pass-through-style sweep through the
/// worker pool twice — bare, and with a MonitorService attached as a record
/// sink — interleaved, best-of-N wall time per arm. The sink costs one map
/// lookup plus a few dozen counter folds per *completed run* (never per
/// event), so the monitored arm must stay within 5% of the bare arm's
/// events/s; a breach reports 0 events for the repetition. A failed run,
/// or an event-count mismatch between arms (the sink perturbed the
/// simulation), throws.
std::uint64_t scenario_monitor_overhead(bool smoke) {
  orchestrator::SweepSpec sweep;
  sweep.name = "monitor-overhead";
  sweep.testbed = standard_testbed();
  sweep.base.warmup = sim::milliseconds(10);
  sweep.base.duration = sim::milliseconds(smoke ? 15 : 40);
  sweep.base.drain = sim::milliseconds(10);
  sweep.base.workload.udp_interval = sim::microseconds(20);
  sweep.base.workload.payload_size = 128;
  sweep.directions = {orchestrator::FaultDirection::kBoth};
  sweep.replicates = smoke ? 1 : 3;
  sweep.faults.push_back(
      {nftape::cell("seu-%04X", 0x00FF), nftape::random_bit_flip_seu(0x00FF), ""});
  const auto runs = orchestrator::expand(sweep);

  // One pass of the sweep; the monitored arm folds every record into the
  // service. Event totals are per-run deterministic, so both arms must
  // agree exactly.
  const auto pass = [&runs](monitor::MonitorService* service, double& wall_s,
                            std::uint64_t& events) {
    orchestrator::RunnerConfig rc;
    rc.workers = 1;  // serial: wall time measures the hot path, not the pool
    if (service != nullptr) rc.sinks.push_back(service);
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = orchestrator::Runner(rc).run_all(runs);
    const auto t1 = std::chrono::steady_clock::now();
    wall_s = std::chrono::duration<double>(t1 - t0).count();
    events = events_of("monitor_overhead", records);
  };

  const int passes = smoke ? 1 : 3;
  double bare_wall = 0.0;
  double monitored_wall = 0.0;
  std::uint64_t bare_events = 0;
  std::uint64_t monitored_events = 0;
  std::uint64_t timed_events = 0;  // every pass of both arms is timed
  monitor::MonitorService service;
  for (int i = 0; i < passes; ++i) {
    double wall = 0.0;
    std::uint64_t events = 0;
    pass(nullptr, wall, events);
    bare_wall = (i == 0) ? wall : std::min(bare_wall, wall);
    bare_events = events;
    timed_events += events;
    pass(&service, wall, events);
    monitored_wall = (i == 0) ? wall : std::min(monitored_wall, wall);
    monitored_events = events;
    timed_events += events;
  }

  require_same_events("monitor_overhead", "sink perturbed the run",
                      monitored_events, bare_events);
  // events/s ratio == inverse wall ratio (identical event totals).
  if (monitored_wall > bare_wall * 1.05) {
    std::fprintf(stderr,
                 "monitor_overhead: attached sink costs %.1f%% events/s "
                 "(budget 5%%): bare %.3fs vs monitored %.3fs\n",
                 (monitored_wall / bare_wall - 1.0) * 100.0, bare_wall,
                 monitored_wall);
    return 0;
  }
  return timed_events;
}

/// Scenario-hook overhead A/B: the same sweep twice — bare, and with an
/// empty (zero-step) scenario armed. Arming installs the protocol-layer
/// hooks (tx mutators on every NIC/switch port) even when no step ever
/// fires, so the armed-idle arm isolates the pure hook cost every
/// non-scenario campaign would pay if the hooks were unconditional. Event
/// totals must match exactly (idle hooks must not perturb the simulation;
/// a mismatch or a failed run throws), and the armed arm must stay within
/// 5% of the bare arm's events/s (a breach reports 0 events for the
/// repetition).
std::uint64_t scenario_scenario_overhead(bool smoke) {
  orchestrator::SweepSpec sweep;
  sweep.name = "scenario-overhead";
  sweep.testbed = standard_testbed();
  sweep.base.warmup = sim::milliseconds(10);
  sweep.base.duration = sim::milliseconds(smoke ? 15 : 40);
  sweep.base.drain = sim::milliseconds(10);
  sweep.base.workload.udp_interval = sim::microseconds(20);
  sweep.base.workload.payload_size = 128;
  sweep.directions = {orchestrator::FaultDirection::kBoth};
  sweep.replicates = smoke ? 1 : 3;
  sweep.faults.push_back(
      {nftape::cell("seu-%04X", 0x00FF), nftape::random_bit_flip_seu(0x00FF), ""});

  const auto pass = [](const std::vector<orchestrator::RunSpec>& runs,
                       double& wall_s, std::uint64_t& events) {
    orchestrator::RunnerConfig rc;
    rc.workers = 1;  // serial: wall time measures the hot path, not the pool
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = orchestrator::Runner(rc).run_all(runs);
    const auto t1 = std::chrono::steady_clock::now();
    wall_s = std::chrono::duration<double>(t1 - t0).count();
    events = events_of("scenario_overhead", records);
  };

  const auto bare_runs = orchestrator::expand(sweep);
  sweep.base.scenario = scenario::ScenarioSpec{"idle", {}};
  const auto armed_runs = orchestrator::expand(sweep);

  const int passes = smoke ? 1 : 3;
  double bare_wall = 0.0;
  double armed_wall = 0.0;
  std::uint64_t bare_events = 0;
  std::uint64_t armed_events = 0;
  std::uint64_t timed_events = 0;  // every pass of both arms is timed
  for (int i = 0; i < passes; ++i) {
    double wall = 0.0;
    std::uint64_t events = 0;
    pass(bare_runs, wall, events);
    bare_wall = (i == 0) ? wall : std::min(bare_wall, wall);
    bare_events = events;
    timed_events += events;
    pass(armed_runs, wall, events);
    armed_wall = (i == 0) ? wall : std::min(armed_wall, wall);
    armed_events = events;
    timed_events += events;
  }

  require_same_events("scenario_overhead", "idle hooks perturbed the run",
                      armed_events, bare_events);
  // events/s ratio == inverse wall ratio (identical event totals).
  if (armed_wall > bare_wall * 1.05) {
    std::fprintf(stderr,
                 "scenario_overhead: installed-idle hooks cost %.1f%% "
                 "events/s (budget 5%%): bare %.3fs vs armed %.3fs\n",
                 (armed_wall / bare_wall - 1.0) * 100.0, bare_wall,
                 armed_wall);
    return 0;
  }
  return timed_events;
}

/// Snapshot/fork A/B: N campaign replicates cold-started (fresh fabric +
/// full startup settle each) vs N forked from one captured settle. The
/// settle is made expensive relative to the measurement window (a 1 ms
/// mapping period packs hundreds of mapping rounds into the settle, while
/// the campaign itself spans ~4 ms), mirroring the sweeps snapshots exist
/// for — settle-dominated cells with many replicates each. Two gates:
///   * every replicate's executed-event count must be identical between
///     arms — a fork that perturbs the simulation is a correctness bug,
///     not a slow path, and throws (so does a fabric without snapshots);
///   * the fork arm should be at least 1.5x faster than the cold arm
///     (best-of-N wall, interleaved passes); a breach reports 0 events
///     for the repetition.
std::uint64_t scenario_snapshot_fork(bool smoke) {
  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(1);
  config.map_reply_window = sim::microseconds(500);
  config.nic_config.rx_processing_time = sim::microseconds(1);
  config.send_stack_time = sim::microseconds(1);
  const sim::Duration settle = sim::milliseconds(smoke ? 300 : 600);
  const std::size_t replicates = 4;

  const auto spec_for = [](std::size_t replicate) {
    nftape::CampaignSpec spec;
    spec.name = "snapshot-fork";
    spec.program_via_serial = false;
    spec.program_guard = sim::microseconds(500);
    spec.disarm_guard = sim::microseconds(500);
    spec.warmup = sim::microseconds(500);
    spec.duration = sim::milliseconds(1);
    spec.drain = sim::microseconds(500);
    spec.workload.udp_interval = sim::microseconds(50);
    spec.workload.payload_size = 64;
    spec.fault_to_switch = nftape::random_bit_flip_seu(0x00FF);
    spec.seed = 0x5eed + replicate;
    return spec;
  };

  // One arm: returns per-replicate event counts.
  const auto cold_pass = [&](double& wall_s) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> events;
    for (std::size_t i = 0; i < replicates; ++i) {
      const auto fabric = nftape::make_fabric(nftape::Medium::kMyrinet, config);
      fabric->start();
      fabric->settle(settle);
      nftape::CampaignRunner runner(*fabric);
      events.push_back(runner.run(spec_for(i)).events_executed);
    }
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    return events;
  };
  const auto fork_pass = [&](double& wall_s) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> events;
    const auto fabric = nftape::make_fabric(nftape::Medium::kMyrinet, config);
    fabric->start();
    fabric->settle(settle);
    const auto snap = fabric->capture_snapshot();
    if (snap == nullptr) {
      throw std::runtime_error("snapshot_fork: fabric has no snapshot support");
    }
    nftape::CampaignRunner runner(*fabric);
    for (std::size_t i = 0; i < replicates; ++i) {
      fabric->restore_snapshot(*snap);
      events.push_back(runner.run(spec_for(i)).events_executed);
    }
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    return events;
  };

  const int passes = smoke ? 1 : 3;
  double cold_wall = 0.0;
  double fork_wall = 0.0;
  std::vector<std::uint64_t> cold_events;
  std::vector<std::uint64_t> fork_events;
  std::uint64_t timed_events = 0;  // every pass of both arms is timed
  for (int i = 0; i < passes; ++i) {
    double wall = 0.0;
    cold_events = cold_pass(wall);
    cold_wall = (i == 0) ? wall : std::min(cold_wall, wall);
    fork_events = fork_pass(wall);
    fork_wall = (i == 0) ? wall : std::min(fork_wall, wall);
    for (const auto e : cold_events) timed_events += e;
    for (const auto e : fork_events) timed_events += e;
  }

  if (fork_events != cold_events) {
    throw std::runtime_error(
        "snapshot_fork: forked replicates perturbed the simulation "
        "(per-replicate event counts differ from cold starts)");
  }
  const double speedup = cold_wall / fork_wall;
  std::fprintf(stderr,
               "snapshot_fork: %.2fx speedup (gate 1.5x): cold %.3fs vs "
               "fork %.3fs\n",
               speedup, cold_wall, fork_wall);
  if (speedup < 1.5) return 0;
  return timed_events;
}

/// FC pass-through: the same saturating flood window realized over the
/// FcFabric — per-character ordered-set scanning, CRC-32, BB-credit
/// bookkeeping, and sequence reassembly are the hot path here, none of
/// which the Myrinet scenarios touch.
std::uint64_t scenario_fc_passthrough(bool smoke) {
  auto config = standard_testbed();
  config.fc.rx_processing_time = sim::microseconds(1);
  const auto fabric = nftape::make_fabric(nftape::Medium::kFc, config);
  fabric->start();
  fabric->settle(sim::milliseconds(10));

  nftape::CampaignSpec spec;
  spec.name = "fc-passthrough";
  spec.medium = nftape::Medium::kFc;
  spec.warmup = sim::milliseconds(5);
  spec.duration = sim::milliseconds(smoke ? 20 : 100);
  spec.drain = sim::milliseconds(5);
  spec.workload.udp_interval = sim::microseconds(12);
  spec.workload.payload_size = 256;
  spec.workload.burst_size = 4;
  spec.workload.jitter = 0.5;
  nftape::CampaignRunner runner(*fabric);
  (void)runner.run(spec);
  return fabric->sim().executed_events();
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = hsfi::bench::parse_options(argc, argv);
  hsfi::bench::Harness harness(options);
  const bool smoke = options.smoke;
  harness.measure("passthrough", [smoke] { return scenario_passthrough(smoke); });
  harness.measure("sec431_throughput", [smoke] { return scenario_sec431(smoke); });
  harness.measure("seu_sweep", [smoke] { return scenario_seu_sweep(smoke); });
  harness.measure("manifestations",
                  [smoke] { return scenario_manifestations(smoke); });
  harness.measure("fc_passthrough",
                  [smoke] { return scenario_fc_passthrough(smoke); });
  harness.measure("monitor_overhead",
                  [smoke] { return scenario_monitor_overhead(smoke); });
  harness.measure("snapshot_fork",
                  [smoke] { return scenario_snapshot_fork(smoke); });
  harness.measure("scenario_overhead",
                  [smoke] { return scenario_scenario_overhead(smoke); });
  return harness.finish();
}
