#include "campaign.hpp"

#include <cerrno>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>

#include "adaptive/controller.hpp"
#include "adaptive/strategy.hpp"
#include "monitor/service.hpp"
#include "nftape/fabric.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/sweep.hpp"

namespace hsfi::bench {

namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

long long non_negative(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (errno == ERANGE || end == v || *end != '\0' || parsed < 0) {
    throw std::invalid_argument(flag + " needs a non-negative integer, got '" +
                                v + "'");
  }
  return parsed;
}

/// run_sweep's built-in testbed and workload (apply_static_config in
/// examples/run_sweep.cpp). Must stay field-for-field identical: the
/// benchmark's JSONL is checked against run_sweep's for the same flags.
void apply_static_config(orchestrator::SweepSpec& sweep) {
  sweep.testbed.map_period = sim::milliseconds(100);
  sweep.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  sweep.testbed.send_stack_time = sim::microseconds(1);
  sweep.testbed.fc.rx_processing_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(10);
  sweep.base.drain = sim::milliseconds(10);
  sweep.base.workload.udp_interval = sim::microseconds(12);
  sweep.base.workload.burst_size = 4;
  sweep.base.workload.jitter = 0.5;
  sweep.base.workload.payload_size = 256;
}

/// The grid run_sweep's flag path builds before choosing the static or
/// adaptive driver.
orchestrator::SweepSpec make_sweep(const CampaignFlags& f) {
  orchestrator::SweepSpec sweep;
  sweep.name = f.medium == nftape::Medium::kFc ? "fc symbol sweep"
                                               : "control-plane sweep";
  sweep.base_seed = f.seed;
  sweep.base.medium = f.medium;
  sweep.replicates = f.replicates == 0 ? 1 : f.replicates;
  sweep.directions = {orchestrator::FaultDirection::kFromSwitch,
                      orchestrator::FaultDirection::kBoth};
  for (auto& fault : orchestrator::standard_fault_axis(f.medium)) {
    if (!f.faults.empty()) {
      const std::string needle = "," + fault.name + ",";
      const std::string hay = "," + f.faults + ",";
      if (hay.find(needle) == std::string::npos) continue;
    }
    sweep.faults.push_back(std::move(fault));
  }
  if (sweep.faults.empty()) {
    throw std::invalid_argument("no faults selected by --faults " + f.faults);
  }
  apply_static_config(sweep);
  sweep.base.duration = sim::milliseconds(f.duration_ms);
  return sweep;
}

adaptive::AdaptiveSpec make_adaptive(const CampaignFlags& f,
                                     const orchestrator::SweepSpec& sweep) {
  adaptive::AdaptiveSpec aspec;
  aspec.name = sweep.name + " [" + f.strategy + "]";
  aspec.base = sweep.base;
  aspec.testbed = sweep.testbed;
  aspec.faults = sweep.faults;
  aspec.directions = sweep.directions;
  aspec.knob = nftape::Knob::kUdpIntervalUs;
  aspec.base_seed = f.seed;
  aspec.max_rounds = 12;  // run_sweep's --max-rounds default
  return aspec;
}

/// run_sweep's coverage strategy: every run at the most intense end of
/// the udp-interval axis (12 us), replicates where classes are still open.
adaptive::CoverageConfig coverage_config(const CampaignFlags& f) {
  adaptive::CoverageConfig cc;
  cc.knob_value = 12.0;
  cc.target_count = 5;  // run_sweep's --target-count default
  cc.batch_replicates = f.replicates;
  return cc;
}

/// Simulated span of one run: what CampaignRunner settles after the
/// startup settle, plus the startup settle itself (paid once per cell in a
/// snapshot-forked run, but part of every run's virtual timeline).
sim::Duration run_span(const orchestrator::RunSpec& run,
                       sim::Duration recovery) {
  const auto& c = run.campaign;
  return run.startup_settle + c.program_guard + c.warmup + c.duration +
         c.drain + c.disarm_guard + recovery;
}

}  // namespace

bool parse_campaign_flag(int argc, char** argv, int& i, CampaignFlags& f) {
  const std::string arg = argv[i];
  const auto value = [&]() -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    return argv[++i];
  };
  if (arg == "--medium") {
    const std::string v = value();
    const auto m = nftape::parse_medium(v);
    if (!m) throw std::invalid_argument("--medium must be myrinet or fc");
    f.medium = *m;
  } else if (arg == "--faults") {
    f.faults = value();
  } else if (arg == "--replicates") {
    f.replicates = static_cast<std::size_t>(non_negative(arg, value()));
  } else if (arg == "--duration-ms") {
    f.duration_ms = static_cast<long>(non_negative(arg, value()));
  } else if (arg == "--snapshots") {
    const std::string v = value();
    if (v != "on" && v != "off") {
      throw std::invalid_argument("--snapshots must be on or off");
    }
    f.snapshots = v == "on";
  } else if (arg == "--monitor") {
    f.monitor = true;
  } else if (arg == "--strategy") {
    f.strategy = value();
    if (f.strategy != "coverage") {
      throw std::invalid_argument("only --strategy coverage is supported");
    }
  } else if (arg == "--seed") {
    f.seed = static_cast<std::uint64_t>(non_negative(arg, value()));
  } else if (arg == "--workers") {
    f.workers = static_cast<std::size_t>(non_negative(arg, value()));
  } else {
    return false;
  }
  return true;
}

PassResult run_pass(const CampaignFlags& f, PassMode mode) {
  if (!f.strategy.empty() && f.monitor) {
    throw std::invalid_argument("--monitor with --strategy is not supported");
  }
  PassResult out;
  out.traced = mode == PassMode::kTraced;
  const auto start = Clock::now();
  std::optional<Tracer> tracer;
  if (out.traced) tracer.emplace(start);

  // Set-up: everything up to the first dispatch. on_progress fires under
  // the pool mutex, first when a worker takes its first run.
  const orchestrator::SweepSpec sweep = make_sweep(f);
  std::optional<Clock::time_point> first_dispatch;
  orchestrator::Progress last;
  orchestrator::RunnerConfig rc;
  rc.workers = f.workers;
  rc.snapshots = f.snapshots;
  rc.on_progress = [&](const orchestrator::Progress& p) {
    if (!first_dispatch) first_dispatch = Clock::now();
    last = p;
  };
  if (tracer) rc.executor = tracer->executor(f.snapshots);
  if (mode == PassMode::kSetupOnly) {
    rc.should_skip = [](const orchestrator::RunSpec&) { return true; };
  }
  monitor::MonitorService service;
  std::optional<TracingSink> traced_service;
  if (f.monitor) {
    if (tracer) {
      rc.sinks.push_back(&traced_service.emplace(service, *tracer));
    } else {
      rc.sinks.push_back(&service);
    }
  }

  // One run of the campaign, for the simulated span: every run of a
  // workload has the same one (only fault, seed and knob differ).
  orchestrator::RunSpec sample;
  if (f.strategy.empty()) {
    const auto runs = orchestrator::expand(sweep);
    orchestrator::Runner runner(rc);
    out.records = runner.run_all(runs);
    sample = runs.front();
  } else {
    const adaptive::AdaptiveSpec aspec = make_adaptive(f, sweep);
    const adaptive::Controller planner(aspec, {});
    adaptive::CoverageStrategy strategy(planner.cells(), coverage_config(f));
    adaptive::ControllerConfig cc;
    cc.runner = rc;
    if (tracer) {
      cc.on_round = [&](const adaptive::RoundSummary& s) {
        tracer->mark("adaptive", "round", s.round);
      };
    }
    adaptive::Controller live(aspec, std::move(cc));
    std::optional<TracingStrategy> traced_strategy;
    adaptive::Strategy& driven =
        tracer ? traced_strategy.emplace(strategy, *tracer)
               : static_cast<adaptive::Strategy&>(strategy);
    auto outcome = live.run(driven);
    out.records = std::move(outcome.records);
    out.rounds = outcome.rounds;
    const adaptive::RunRequest first{planner.cells().front(),
                                     coverage_config(f).knob_value};
    sample = planner.expand_round({first}, 0, 0, f.strategy).front();
  }

  if (!first_dispatch) throw std::runtime_error("no run was dispatched");
  out.setup_s = seconds(*first_dispatch - start);
  if (mode == PassMode::kSetupOnly) return out;

  // The JSONL file, as run_sweep writes it (records in run order).
  for (const auto& r : out.records) {
    const std::string line =
        tracer ? tracer->timed("orchestrator", "jsonl",
                               static_cast<std::int64_t>(r.index),
                               [&] { return orchestrator::to_jsonl(r); })
               : orchestrator::to_jsonl(r);
    out.jsonl += line;
    out.jsonl += '\n';
  }
  const auto end = Clock::now();
  out.wall_s = seconds(end - start);
  out.retries = last.retries;
  const sim::Duration recovery =
      nftape::make_fabric(sample.campaign.medium, sample.testbed)
          ->recovery_time();
  out.sim_span_s = sim::to_seconds(run_span(sample, recovery)) *
                   static_cast<double>(out.records.size());
  if (tracer) {
    out.spans = tracer->take_spans();
    out.overhead_ns = tracer->overhead_ns();
  }
  return out;
}

}  // namespace hsfi::bench
