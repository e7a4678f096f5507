// Campaign sweep CLI: the NFTAPE "external management and control
// framework" role, scaled out. argv becomes one campaign — the grid flags
// lowered by orchestrator::lower_grid_flags, or a --spec campaign file —
// and adaptive::run_campaign executes it: a fault × direction × replicate
// grid (or a strategy's rounds) of independent runs on a worker pool, one
// private simulated testbed per run.
//
//   ./build/examples/run_sweep                          # default 32-run grid
//   ./build/examples/run_sweep --workers 1 --out a.jsonl
//   ./build/examples/run_sweep --workers 8 --out b.jsonl
//   cmp a.jsonl b.jsonl                                 # byte-identical
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/campaign_driver.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/repro.hpp"
#include "scenario/scenario.hpp"

using namespace hsfi;

namespace {

void usage(std::FILE* to = stdout) {
  std::fprintf(
      to,
      "usage: run_sweep [options]\n"
      "  --workers N      worker threads (default: hardware concurrency)\n"
      "  --snapshots on|off\n"
      "                   snapshot/fork execution: each worker settles one\n"
      "                   fabric per (topology, workload, medium) cell,\n"
      "                   captures the settled state, and forks every run\n"
      "                   of that cell from the snapshot instead of\n"
      "                   re-simulating boot + mapping (default: off; the\n"
      "                   JSONL records are byte-identical either way)\n"
      "  --seed S         base seed; per-run seeds derive from it (default 1)\n"
      "  --replicates R   seed replicates per grid point (default 2)\n"
      "  --duration-ms D  measurement window per run (default 60)\n"
      "  --out FILE       write JSONL records there (default: stdout)\n"
      "  --timing         include per-run wall_ms in the JSONL (wall time\n"
      "                   is nondeterministic; omit for byte-comparable runs)\n"
      "  --bench-out FILE write sweep throughput in the BENCH_sim_kernel.json\n"
      "                   schema ({bench, metric, value, unit, commit})\n"
      "  --medium M       network under test: myrinet (default) or fc; picks\n"
      "                   the fabric realization and the fault axis\n"
      "  --faults a,b,c   restrict the fault axis (see --list)\n"
      "  --list           print the selected medium's fault axis and exit\n"
      "  --list-faults    like --list but with one-line descriptions\n"
      "  --list-scenarios print the registered misbehavior scenarios (name,\n"
      "                   medium, description) and exit\n"
      "  --scenario S     arm the named protocol-misbehavior scenario (see\n"
      "                   --list-scenarios) over every run's measurement\n"
      "                   window; composes with the fault axis and\n"
      "                   --strategy, and step firings count as injections\n"
      "  --emit-repro F   with --scenario: execute one reference run, then\n"
      "                   delta-debug (ddmin) the step sequence down to a\n"
      "                   minimal reproducer of the same manifestation\n"
      "                   class on a snapshot-forked fabric, verify it, and\n"
      "                   write a replayable trace to F\n"
      "  --replay F       re-execute a trace written by --emit-repro and\n"
      "                   compare the produced JSONL record byte-for-byte\n"
      "                   against the record stored in the trace\n"
      "  --strategy S     closed-loop campaign instead of the static grid:\n"
      "                   bisect (binary-search the manifestation threshold\n"
      "                   on the udp-interval axis per fault x direction\n"
      "                   cell), or coverage (replicate where rare\n"
      "                   manifestation classes still lack observations)\n"
      "  --tolerance T    bisect: stop once the threshold bracket is <= T\n"
      "                   microseconds wide (default 24)\n"
      "  --max-rounds N   adaptive round cap (default 12)\n"
      "  --target-count N coverage: observations wanted per manifestation\n"
      "                   class per cell (default 5)\n"
      "  --monitor        attach the live monitor: stream every completed\n"
      "                   run into the online analysis service and print the\n"
      "                   per-cell table (runs, Wilson 95%% manifestation CI,\n"
      "                   class mix, drift flags) to stderr after the sweep\n"
      "  --monitor-interval-ms N\n"
      "                   with --monitor: also re-render the table at most\n"
      "                   every N ms while the campaign runs (default: final\n"
      "                   table only)\n"
      "  --early-cancel   with a strategy: live mode — the controller\n"
      "                   cancels a cell's remaining runs in a round once\n"
      "                   the strategy declares them redundant (records\n"
      "                   become outcome=skipped, so the JSONL is neither\n"
      "                   byte-stable across worker counts nor resumable)\n"
      "  --dry-run        print the expanded grid (static) or the round-0\n"
      "                   batch (strategy); it runs and writes nothing\n"
      "  --spec FILE      declarative campaign file (JSON: targets, media,\n"
      "                   fault subsets, grids, strategy) instead of the grid\n"
      "                   flags --medium/--faults/--seed/--replicates/\n"
      "                   --duration-ms/--scenario/--emit-repro/--strategy\n"
      "                   and its knobs; every other flag applies to it\n"
      "  --shard K/N      with --spec --out: execute only shard K of N\n"
      "                   (0-based; ownership is seed-keyed, so all N\n"
      "                   processes agree without coordination); writes\n"
      "                   FILE.shardKofN plus a durable .ckpt sidecar\n"
      "  --merge N        with --spec --out: merge the N shard files into\n"
      "                   --out, byte-identical to a single-process run\n"
      "  --resume         with --spec --out: continue after the last durable\n"
      "                   checkpoint batch (static) or round (strategy);\n"
      "                   refuses checkpoints from an edited spec\n"
      "  --batch N        with --spec --out: override checkpoint_batch\n"
      "  --crash-after-batches N\n"
      "                   test hook (with --spec --out): append a torn\n"
      "                   record and hard-exit, as if SIGKILLed, after\n"
      "                   this invocation's Nth durable batch/round\n");
}

/// Flags that define the campaign, which a --spec file defines already.
constexpr std::string_view kDefining[] = {
    "--medium",     "--faults",     "--seed",       "--replicates",
    "--duration-ms", "--scenario",  "--emit-repro", "--strategy",
    "--tolerance",  "--max-rounds", "--target-count"};

/// Flags that only mean something to a strategy.
constexpr std::string_view kStrategyOnly[] = {"--tolerance", "--max-rounds",
                                              "--target-count",
                                              "--early-cancel"};

/// Flags of durable execution, which binds checkpoints to a spec file.
constexpr std::string_view kDurable[] = {"--shard", "--merge", "--resume",
                                         "--batch", "--crash-after-batches"};

bool in(const std::string& arg, const auto& table) {
  return std::find(std::begin(table), std::end(table), arg) != std::end(table);
}

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "%s\n\n", why.c_str());
  usage(stderr);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  orchestrator::GridFlags grid;
  orchestrator::StrategySpec strategy;  // name stays empty without --strategy
  adaptive::CampaignOptions opts;
  std::string spec_path;
  std::string emit_repro_path;
  std::string replay_path;
  bool list = false;
  bool list_faults = false;
  bool list_scenarios = false;
  std::vector<std::string> defining, strategy_only, durable;
  int options = 0;

  for (int i = 1; i < argc; ++i, ++options) {
    const std::string arg = argv[i];
    if (in(arg, kDefining)) defining.push_back(arg);
    if (in(arg, kStrategyOnly)) strategy_only.push_back(arg);
    if (in(arg, kDurable)) durable.push_back(arg);
    // Both lambdas bound-check i before reading argv[++i]: a flag at the
    // end of the command line must not read past argv, and a non-numeric
    // value must not silently parse as 0.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) refuse(arg + " needs a value");
      return argv[++i];
    };
    const auto numeric = [&]() -> long long {
      const char* v = value();
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(v, &end, 10);
      // ERANGE check: strtoll saturates out-of-range input to LLONG_MAX and
      // only reports it via errno, so "--seed 99999999999999999999" would
      // otherwise silently become a different campaign.
      if (errno == ERANGE) refuse(arg + " value out of range: '" + v + "'");
      if (end == v || *end != '\0' || parsed < 0) {
        refuse(arg + " needs a non-negative integer, got '" + v + "'");
      }
      return parsed;
    };
    const auto positive = [&]() -> long long {
      const long long n = numeric();
      if (n == 0) refuse(arg + " must be positive");
      return n;
    };
    if (arg == "--workers") {
      opts.workers = static_cast<std::size_t>(numeric());
    } else if (arg == "--snapshots") {
      const std::string v = value();
      if (v != "on" && v != "off") {
        refuse("--snapshots must be on or off, got '" + v + "'");
      }
      opts.snapshots = v == "on";
    } else if (arg == "--seed") {
      grid.seed = static_cast<std::uint64_t>(numeric());
    } else if (arg == "--replicates") {
      grid.replicates = static_cast<std::size_t>(numeric());
    } else if (arg == "--duration-ms") {
      const auto ms = numeric();
      if (static_cast<double>(ms) > orchestrator::kMaxDurationMs) {
        refuse("--duration-ms must be at most 1000000");
      }
      grid.duration = sim::milliseconds(ms);
    } else if (arg == "--spec") {
      spec_path = value();
    } else if (arg == "--shard") {
      const char* v = value();
      char* end = nullptr;
      errno = 0;
      const unsigned long long k = std::strtoull(v, &end, 10);
      bool ok = errno != ERANGE && end != v && *end == '/';
      unsigned long long n = 0;
      if (ok) {
        const char* rest = end + 1;
        errno = 0;
        n = std::strtoull(rest, &end, 10);
        ok = errno != ERANGE && end != rest && *end == '\0' && n > 0 &&
             k < n && n <= 4096;
      }
      if (!ok) {
        refuse(std::string("--shard wants K/N with 0 <= K < N, got '") + v +
               "'");
      }
      opts.shard_k = static_cast<std::uint32_t>(k);
      opts.shard_n = static_cast<std::uint32_t>(n);
    } else if (arg == "--merge") {
      const auto n = numeric();
      if (n < 2 || n > 4096) refuse("--merge needs at least 2 shards");
      opts.merge_n = static_cast<std::uint32_t>(n);
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--batch") {
      opts.batch = static_cast<std::size_t>(positive());
    } else if (arg == "--crash-after-batches") {
      opts.crash_after = static_cast<std::uint64_t>(numeric());
    } else if (arg == "--out") {
      opts.out_path = value();
    } else if (arg == "--bench-out") {
      opts.bench_out_path = value();
    } else if (arg == "--timing") {
      opts.timing = true;
    } else if (arg == "--faults") {
      grid.faults.clear();
      const std::string list_arg = value();
      for (std::size_t at = 0; !list_arg.empty();) {
        const std::size_t comma = list_arg.find(',', at);
        grid.faults.push_back(list_arg.substr(at, comma - at));
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (arg == "--medium") {
      const char* v = value();
      const auto parsed = nftape::parse_medium(v);
      if (!parsed) {
        refuse(std::string("--medium must be myrinet or fc, got '") + v + "'");
      }
      grid.medium = *parsed;
    } else if (arg == "--strategy") {
      strategy.name = value();
      if (strategy.name != "bisect" && strategy.name != "coverage") {
        refuse("--strategy must be bisect or coverage, got '" +
               strategy.name + "'");
      }
    } else if (arg == "--tolerance") {
      strategy.tolerance_us = static_cast<double>(positive());
    } else if (arg == "--max-rounds") {
      const auto n = numeric();
      if (n > UINT32_MAX) refuse("--max-rounds must be at most 4294967295");
      strategy.max_rounds = static_cast<std::uint32_t>(n);
    } else if (arg == "--target-count") {
      strategy.target_count = static_cast<std::uint64_t>(numeric());
    } else if (arg == "--monitor") {
      opts.monitor = true;
    } else if (arg == "--monitor-interval-ms") {
      opts.monitor_interval_ms = static_cast<long>(positive());
    } else if (arg == "--early-cancel") {
      opts.early_cancel = true;
    } else if (arg == "--dry-run") {
      opts.dry_run = true;
    } else if (arg == "--list") {
      list = true;  // deferred past parsing: `--medium fc --list` works too
    } else if (arg == "--list-faults") {
      list_faults = true;
    } else if (arg == "--list-scenarios") {
      list_scenarios = true;
    } else if (arg == "--scenario") {
      grid.scenario = value();
    } else if (arg == "--emit-repro") {
      emit_repro_path = value();
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--help") {
      usage();
      return 0;
    } else {
      refuse("unknown option '" + arg + "'");
    }
  }
  if (!strategy.name.empty()) grid.strategy = strategy;

  // Listings describe the catalogues and load no campaign.
  if (list_scenarios) {
    for (const auto& s : scenario::list_scenarios()) {
      std::printf("%-15s %-8s %s\n", std::string(s.name).c_str(),
                  std::string(scenario::to_string(s.medium)).c_str(),
                  std::string(s.description).c_str());
    }
    return 0;
  }
  if (list || list_faults) {
    for (const auto& f : orchestrator::standard_fault_axis(grid.medium)) {
      if (list_faults) {
        std::printf("%-15s %s\n", f.name.c_str(), f.description.c_str());
      } else {
        std::printf("%s\n", f.name.c_str());
      }
    }
    return 0;
  }

  // The refusals: combinations that contradict what the flags mean.
  if (!replay_path.empty()) {
    // The trace defines the run and how it executes: one cold run on one
    // worker, compared with the stored record.
    if (options > 1) refuse("--replay is standalone; drop the other flags");
    return orchestrator::replay_repro(replay_path);
  }
  if (!spec_path.empty() && !defining.empty()) {
    std::string flags;
    for (const auto& f : defining) flags += (flags.empty() ? "" : "/") + f;
    refuse("--spec defines the campaign; drop " + flags);
  }
  if (!durable.empty() && spec_path.empty()) {
    refuse("--shard/--merge/--resume/--batch/--crash-after-batches require "
           "--spec");
  }
  if (!durable.empty() && opts.out_path.empty()) {
    refuse("--shard/--merge/--resume require --out (so do --batch and "
           "--crash-after-batches)");
  }
  if (opts.shard_n > 1 && opts.merge_n > 0) {
    refuse("--shard and --merge are mutually exclusive");
  }
  if (opts.monitor_interval_ms > 0 && !opts.monitor) {
    refuse("--monitor-interval-ms requires --monitor");
  }
  if (!emit_repro_path.empty() && grid.scenario.empty()) {
    refuse("--emit-repro requires --scenario");
  }
  if (!emit_repro_path.empty() && grid.strategy) {
    refuse("--emit-repro minimizes a single static run; drop --strategy");
  }
  if (opts.early_cancel && opts.resume) {
    refuse("--early-cancel cannot --resume: live-mode records depend on "
           "completion order");
  }

  orchestrator::CampaignFile campaign;
  try {
    campaign = spec_path.empty() ? orchestrator::lower_grid_flags(grid)
                                 : orchestrator::load_campaign_file(spec_path);
  } catch (const orchestrator::CampaignFileError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (!campaign.strategy && !strategy_only.empty()) {
    refuse(strategy_only.front() + " requires --strategy");
  }
  if (campaign.strategy && (opts.shard_n > 1 || opts.merge_n > 0)) {
    refuse("--shard/--merge apply to static campaigns; '" + spec_path +
           "' is steered by strategy " + campaign.strategy->name);
  }

  if (!emit_repro_path.empty()) {
    return orchestrator::emit_repro(campaign.targets.front(),
                                    !grid.faults.empty(), emit_repro_path,
                                    opts.dry_run);
  }
  return adaptive::run_campaign(campaign, opts);
}
