#include "adaptive/campaign_driver.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/strategy.hpp"
#include "monitor/service.hpp"
#include "nftape/report.hpp"
#include "orchestrator/jsonl.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/shard.hpp"

namespace hsfi::adaptive {

namespace {

using orchestrator::CampaignFile;
using orchestrator::CampaignTarget;
using orchestrator::RunRecord;

/// Campaign throughput in the BENCH_sim_kernel.json schema
/// ({bench, metric, value, unit, commit}).
bool write_bench_out(const std::string& path,
                     const std::vector<RunRecord>& records, double total_s) {
  std::uint64_t events = 0;
  std::uint64_t symbols = 0;
  for (const auto& r : records) {
    events += r.result.events_executed;
    symbols += r.result.symbols_sent;
  }
  const auto record = [](const char* metric, double v, int decimals,
                         const char* unit) {
    return orchestrator::BenchRecord{"run_sweep", metric, v, decimals, unit};
  };
  return orchestrator::write_bench_records(
      path,
      {record("events_per_sec_median",
              total_s > 0 ? static_cast<double>(events) / total_s : 0, 1,
              "events/s"),
       record("wall_s_median", total_s, 6, "s"),
       record("events", static_cast<double>(events), 0, "count"),
       // Link symbols carried over the same runs: invariant under
       // kernel-level batching, so events-per-symbol trending down means a
       // refactor removed scheduling overhead rather than simulated less
       // traffic.
       record("symbols", static_cast<double>(symbols), 0, "count"),
       record("runs", static_cast<double>(records.size()), 0, "count")});
}

/// Re-renders the monitor table to stderr at most once per interval,
/// driven by run completions (no render thread; the runner serializes
/// sink callbacks, so the steady_clock read races with nothing).
class IntervalRenderer final : public orchestrator::RecordSink {
 public:
  IntervalRenderer(monitor::MonitorService& service, long interval_ms)
      : service_(service),
        interval_(std::chrono::milliseconds(interval_ms)),
        last_(std::chrono::steady_clock::now()) {}

  void on_record(const RunRecord&) override {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_ < interval_) return;
    last_ = now;
    std::fprintf(stderr, "\n%s",
                 service_.table("live monitor").render().c_str());
  }

 private:
  monitor::MonitorService& service_;
  std::chrono::steady_clock::duration interval_;
  std::chrono::steady_clock::time_point last_;
};

/// The crash_after hook: append a torn (newline-less, truncated) record to
/// the data file — the worst-case in-flight write — then die without
/// unwinding, like a SIGKILL would. Resume must discard the tear.
[[noreturn]] void crash_torn(const std::string& data_file) {
  const int fd = ::open(data_file.c_str(), O_WRONLY | O_APPEND);
  if (fd >= 0) {
    const char torn[] = "{\"run\":9999999,\"name\":\"torn-by-cra";
    const ssize_t ignored = ::write(fd, torn, sizeof(torn) - 1);
    (void)ignored;
    ::close(fd);
  }
  _exit(9);
}

/// The driver's one JSONL emission site. A durable campaign appends each
/// line to its data file as the record arrives; every other campaign
/// collects the lines for one write at the end, so nothing is opened — let
/// alone truncated — before the campaign has run.
struct JsonlOut {
  bool timing = false;
  std::unique_ptr<orchestrator::DurableAppender> durable;
  std::string lines;

  void add(const RunRecord& record) {
    const std::string line = orchestrator::to_jsonl(record, timing) + '\n';
    if (durable != nullptr) {
      durable->append(line);
    } else {
      lines += line;
    }
  }
};

/// The one strategy factory. The intensity axis is the strategy's knob,
/// from axis_lo (most intense) to axis_hi; fixed runs the target's own
/// workload point.
std::unique_ptr<Strategy> make_strategy(const orchestrator::StrategySpec& s,
                                        std::vector<Cell> cells,
                                        const orchestrator::SweepSpec& sweep) {
  if (s.name == "bisect") {
    BisectionConfig bc;
    bc.lo = s.axis_lo;
    bc.hi = s.axis_hi;
    bc.tolerance = s.tolerance_us;
    bc.higher_is_more_intense = false;
    bc.min_manifested = 3;
    return std::make_unique<BisectionStrategy>(std::move(cells), bc);
  }
  if (s.name == "coverage") {
    CoverageConfig cc;
    cc.knob_value = s.axis_lo;
    cc.target_count = s.target_count;
    cc.batch_replicates = sweep.replicates;
    return std::make_unique<CoverageStrategy>(std::move(cells), cc);
  }
  FixedGridConfig fg;
  fg.knob_values = {
      sim::to_nanoseconds(sweep.base.workload.udp_interval) / 1000.0};
  fg.replicates = sweep.replicates;
  return std::make_unique<FixedGridStrategy>(std::move(cells), fg);
}

/// The Controller plane of one target of a strategy campaign; its runs
/// are numbered from `index_base` and named "<target>:..." when the
/// target has a name.
AdaptiveSpec steered_spec(const CampaignFile& file,
                          const CampaignTarget& target,
                          std::size_t index_base) {
  const orchestrator::SweepSpec& sweep = target.sweep;
  AdaptiveSpec spec;
  spec.name = file.name;
  spec.base = sweep.base;
  spec.testbed = sweep.testbed;
  spec.startup_settle = sweep.startup_settle;
  spec.faults = sweep.faults;
  spec.directions = sweep.directions;
  spec.knob = file.strategy->knob;
  spec.base_seed = sweep.base_seed;
  spec.max_rounds = file.strategy->max_rounds;
  spec.name_prefix = target.name.empty() ? "" : target.name + ":";
  spec.index_base = index_base;
  return spec;
}

/// The one dry-run printer: the expanded grid of a static campaign
/// (filtered to this shard), or each target's round-0 batch of a strategy
/// campaign — later rounds depend on results, so that is all it can show.
void print_plan(const CampaignFile& file, const CampaignOptions& o) {
  if (!file.strategy) {
    const auto runs = orchestrator::expand_campaign(file);
    const CampaignTarget& only = file.targets.front();
    if (file.targets.size() == 1 && only.name.empty()) {
      std::printf(
          "dry run: %zu runs (%zu faults x %zu directions x %zu reps)\n",
          runs.size(), only.sweep.faults.size(), only.sweep.directions.size(),
          only.sweep.replicates);
    } else {
      std::printf("dry run: %zu runs across %zu targets\n", runs.size(),
                  file.targets.size());
    }
    for (const auto& r : runs) {
      if (orchestrator::shard_of(r.seed, o.shard_n) != o.shard_k) continue;
      std::printf("%zu %s seed=%llu\n", r.index, r.campaign.name.c_str(),
                  (unsigned long long)r.seed);
    }
    return;
  }
  for (const auto& target : file.targets) {
    const Controller planner(steered_spec(file, target, 0));
    const auto strategy =
        make_strategy(*file.strategy, planner.cells(), target.sweep);
    const auto round0 = planner.expand_round(strategy->next_round(0), 0, 0,
                                             file.strategy->name);
    std::printf("%s: %zu runs in round 0 (strategy %s)\n",
                target.name.empty() ? "dry run" : target.name.c_str(),
                round0.size(), file.strategy->name.c_str());
    for (const auto& r : round0) {
      std::printf("%zu %s seed=%llu round=%u\n", r.index,
                  r.campaign.name.c_str(), (unsigned long long)r.seed,
                  r.round);
    }
  }
}

struct Executed {
  std::vector<RunRecord> records;  ///< run by this invocation, in order
  std::vector<std::string> notes;  ///< for the per-cell table
};

Executed run_static(const CampaignFile& file, const CampaignOptions& o,
                    orchestrator::RunnerConfig rc, bool durable,
                    JsonlOut& out) {
  const auto runs = orchestrator::shard_runs(
      orchestrator::expand_campaign(file), o.shard_k, o.shard_n);
  std::fprintf(stderr, "%s: %zu runs", file.name.c_str(), runs.size());
  if (o.shard_n > 1) {
    std::fprintf(stderr, " on shard %u/%u", o.shard_k, o.shard_n);
  }
  std::fprintf(stderr, "\n");
  rc.on_progress = [](const orchestrator::Progress& p) {
    std::fprintf(stderr, "\r%zu/%zu done, %zu failed, %zu in flight   ",
                 p.completed + p.failed, p.total, p.failed, p.in_flight);
  };
  orchestrator::Runner runner(rc);

  Executed done;
  if (!durable) {
    // Records come back indexed by run, so the file is deterministic (and,
    // without --timing, byte-identical for any --workers value).
    done.records = runner.run_all(runs);
    std::fprintf(stderr, "\n");
    for (const auto& r : done.records) out.add(r);
    return done;
  }

  const std::string data_file =
      orchestrator::shard_path(o.out_path, o.shard_k, o.shard_n);
  orchestrator::Checkpoint identity;
  identity.spec_digest = file.digest;
  identity.shard = o.shard_k;
  identity.of = o.shard_n;
  orchestrator::ShardOptions shard;
  shard.batch = o.batch != 0 ? o.batch : file.checkpoint_batch;
  shard.resume = o.resume;
  shard.include_timing = o.timing;
  if (o.crash_after > 0) {
    shard.after_batch = [&](const orchestrator::Checkpoint& c) {
      if (c.batches >= o.crash_after) crash_torn(data_file);
    };
  }
  auto result =
      orchestrator::run_sharded(runner, runs, data_file, identity, shard);
  std::fprintf(stderr, "\n%s: %zu runs executed, %llu restored from %s\n",
               data_file.c_str(), result.executed.size(),
               (unsigned long long)result.restored,
               orchestrator::checkpoint_path(data_file).c_str());
  done.records = std::move(result.executed);
  return done;
}

/// Per target, per round: the durable records a resume feeds back to
/// Controller::run instead of executing them again.
using Replay = std::vector<std::vector<RunRecord>>;

/// Reads back the JSONL prefix a round checkpoint vouches for through
/// orchestrator::read_durable_records (exactly the targets' records, with
/// nothing torn or left over), grouped by target and round (emission is
/// target-major, then round-major). A target's round count must respect
/// the spec's max_rounds, and a record's round must lie below it and never
/// step back. Anything else is a tampered or foreign file, refused before
/// any round is replayed.
std::vector<Replay> read_replays(const std::string& data_file,
                                 const orchestrator::RoundCheckpoint& ckpt,
                                 std::uint32_t max_rounds) {
  const std::string sidecar = orchestrator::checkpoint_path(data_file);
  std::uint64_t total = 0;
  for (std::size_t ti = 0; ti < ckpt.targets.size(); ++ti) {
    const auto& t = ckpt.targets[ti];
    if (t.rounds > max_rounds) {
      throw std::runtime_error(
          sidecar + ": target " + std::to_string(ti) + " claims " +
          std::to_string(t.rounds) + " rounds but the spec allows " +
          std::to_string(max_rounds));
    }
    // Every record takes at least one byte, so a larger count is refused
    // here and the total cannot wrap.
    if (t.records > ckpt.bytes) {
      throw std::runtime_error(
          sidecar + ": target " + std::to_string(ti) + " claims " +
          std::to_string(t.records) + " records in " +
          std::to_string(ckpt.bytes) + " bytes");
    }
    total += t.records;
  }
  auto records =
      orchestrator::read_durable_records(data_file, ckpt.bytes, total);
  auto next = records.begin();
  std::vector<Replay> replays(ckpt.targets.size());
  for (std::size_t ti = 0; ti < ckpt.targets.size(); ++ti) {
    const std::uint64_t rounds = ckpt.targets[ti].rounds;
    Replay& replay = replays[ti];
    for (std::uint64_t n = 0; n < ckpt.targets[ti].records; ++n, ++next) {
      if (next->round >= rounds || next->round + 1 < replay.size()) {
        throw std::runtime_error(
            "record out of round order in " + data_file + " (run " +
            std::to_string(next->index) + " in round " +
            std::to_string(next->round) + ", target " + std::to_string(ti) +
            " has " + std::to_string(rounds) + " durable rounds)");
      }
      replay.resize(next->round + 1);
      replay[next->round].push_back(std::move(*next));
    }
  }
  return replays;
}

/// Strategy campaigns: one Controller per target, in file order. A durable
/// campaign syncs its data file and rewrites the round sidecar at every
/// round barrier (data first, cursor second); a resume replays the durable
/// rounds through the strategy, which re-derives and verifies each one
/// before new rounds execute.
Executed run_steered(const CampaignFile& file, const CampaignOptions& o,
                     const orchestrator::RunnerConfig& rc, bool durable,
                     JsonlOut& out) {
  const orchestrator::StrategySpec& strat = *file.strategy;
  const std::string sidecar = orchestrator::checkpoint_path(o.out_path);
  orchestrator::RoundCheckpoint ckpt;
  ckpt.spec_digest = file.digest;
  ckpt.targets.resize(file.targets.size());
  std::vector<Replay> replays(file.targets.size());
  if (durable && o.resume) {
    if (auto existing = orchestrator::read_round_checkpoint(
            sidecar, file.digest, file.targets.size())) {
      ckpt = std::move(*existing);
      replays = read_replays(o.out_path, ckpt, strat.max_rounds);
      std::fprintf(stderr, "resuming %s: %llu durable bytes restored\n",
                   o.out_path.c_str(), (unsigned long long)ckpt.bytes);
    }
  }
  if (durable) {
    out.durable = std::make_unique<orchestrator::DurableAppender>(
        o.out_path, ckpt.bytes);
  }
  const auto checkpoint = [&] {
    out.durable->sync();
    ckpt.bytes = out.durable->bytes();
    orchestrator::write_round_checkpoint(sidecar, ckpt);
  };

  Executed done;
  std::size_t index_base = 0;
  std::uint64_t rounds_run = 0;  // across targets, for crash_after
  for (std::size_t ti = 0; ti < file.targets.size(); ++ti) {
    const CampaignTarget& target = file.targets[ti];
    const std::string label = target.name.empty() ? file.name : target.name;
    const std::size_t replayed_rounds = replays[ti].size();

    ControllerConfig cc;
    cc.runner = rc;
    cc.on_round = [&](const RoundSummary& s) {
      std::fprintf(stderr, "%s round %u: %zu runs (%zu failed), %zu total\n",
                   label.c_str(), s.round, s.runs, s.failed, s.total_runs);
      if (!durable || s.round < replayed_rounds) return;
      ckpt.targets[ti].rounds = s.round + 1;
      ckpt.targets[ti].records = s.total_runs;
      checkpoint();
      if (o.crash_after > 0 && ++rounds_run >= o.crash_after) {
        crash_torn(o.out_path);
      }
    };
    cc.on_record = [&](const RunRecord& r) { out.add(r); };
    cc.early_cancel = o.early_cancel;
    AdaptiveSpec spec = steered_spec(file, target, index_base);
    const std::string prefix = spec.name_prefix;
    Controller controller(std::move(spec), std::move(cc));
    const auto strategy =
        make_strategy(strat, controller.cells(), target.sweep);
    auto outcome = controller.run(*strategy, replays[ti]);

    const std::size_t records = outcome.replayed + outcome.records.size();
    index_base += records;
    ckpt.targets[ti] = {outcome.rounds, records, true};
    if (durable) checkpoint();
    std::fprintf(stderr, "%s: %u rounds, %s; %zu runs executed, %zu replayed\n",
                 label.c_str(), outcome.rounds,
                 outcome.converged ? "converged" : "round/run cap reached",
                 outcome.records.size(), outcome.replayed);

    if (strat.name == "bisect") {
      const auto& bisect = static_cast<const BisectionStrategy&>(*strategy);
      const auto cells = controller.cells();
      const std::string knob(nftape::to_string(strat.knob));
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& t = bisect.thresholds()[i];
        const std::string cell = prefix + controller.cell_name(cells[i]);
        if (t.found && std::isnan(t.masked_at)) {
          done.notes.push_back(nftape::cell(
              "%s: the entire axis manifests (down to %s = %.6g, %zu runs)",
              cell.c_str(), knob.c_str(), t.manifested_at, t.runs));
        } else if (t.found) {
          done.notes.push_back(nftape::cell(
              "%s: manifests at %s <= %.6g (bracket %.6g..%.6g, %zu runs)",
              cell.c_str(), knob.c_str(), t.manifested_at, t.manifested_at,
              t.masked_at, t.runs));
        } else {
          done.notes.push_back(nftape::cell(
              "%s: no manifestation on the axis", cell.c_str()));
        }
      }
    }
    for (auto& r : outcome.records) done.records.push_back(std::move(r));
  }
  return done;
}

}  // namespace

int run_campaign(const CampaignFile& file, const CampaignOptions& o) {
  try {
    if (o.dry_run) {
      print_plan(file, o);
      return 0;
    }
    if (o.merge_n > 0) {
      const std::size_t merged = orchestrator::merge_shards(
          orchestrator::expand_campaign(file), o.out_path, o.merge_n);
      std::fprintf(stderr, "merged %zu records from %u shards into %s\n",
                   merged, o.merge_n, o.out_path.c_str());
      return 0;
    }
    // A checkpoint binds to the spec text's digest; a campaign lowered from
    // flags has none, so it writes its records once, at the end.
    const bool durable = file.digest != 0 && !o.out_path.empty();

    monitor::MonitorService service;
    std::unique_ptr<IntervalRenderer> renderer;
    orchestrator::RunnerConfig rc;
    rc.workers = o.workers;
    rc.snapshots = o.snapshots;
    // The service folds each record before the renderer shows it.
    if (o.monitor) rc.sinks.push_back(&service);
    if (o.monitor && o.monitor_interval_ms > 0) {
      renderer = std::make_unique<IntervalRenderer>(service,
                                                    o.monitor_interval_ms);
      rc.sinks.push_back(renderer.get());
    }

    JsonlOut out;
    out.timing = o.timing;
    const auto start = std::chrono::steady_clock::now();
    Executed done = file.strategy
                        ? run_steered(file, o, rc, durable, out)
                        : run_static(file, o, rc, durable, out);
    const double total_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!durable) {
      if (o.out_path.empty()) {
        std::fputs(out.lines.c_str(), stdout);
      } else if (!(std::ofstream(o.out_path, std::ios::binary) << out.lines)) {
        std::fprintf(stderr, "cannot write %s\n", o.out_path.c_str());
        return 1;
      }
    }
    if (!o.bench_out_path.empty() &&
        !write_bench_out(o.bench_out_path, done.records, total_s)) {
      return 1;
    }

    if (!done.records.empty()) {
      auto report = orchestrator::summarize(
          file.strategy ? file.name + " [" + file.strategy->name + "]"
                        : file.name,
          done.records);
      report.add_note(nftape::cell(
          "%.1f s wall, %.2f runs/s", total_s,
          static_cast<double>(done.records.size()) / total_s));
      std::fprintf(stderr, "\n%s", report.render().c_str());
      auto cells = orchestrator::cell_summary("per-cell manifestation rates",
                                              done.records);
      for (auto& note : done.notes) cells.add_note(std::move(note));
      std::fprintf(stderr, "\n%s", cells.render().c_str());
    }
    if (o.monitor) {
      std::fprintf(stderr, "\n%s",
                   service.table("monitor (final)").render().c_str());
    }
    for (const auto& r : done.records) {
      if (r.outcome != orchestrator::RunOutcome::kOk &&
          r.outcome != orchestrator::RunOutcome::kSkipped) {
        return 2;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace hsfi::adaptive
