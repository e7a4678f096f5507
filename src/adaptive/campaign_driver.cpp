#include "adaptive/campaign_driver.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
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
using orchestrator::RunRecord;

/// Campaign throughput in the BENCH_sim_kernel.json schema
/// ({bench, metric, value, unit, commit}).
bool write_bench_out(const std::string& path,
                     std::span<const RunRecord> records, double total_s) {
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

/// The one strategy factory. The intensity axis is the strategy's knob,
/// from axis_lo (most intense) to axis_hi. The static grid runs without
/// one, so parse_strategy and run_sweep admit only bisect and coverage.
std::unique_ptr<Strategy> make_strategy(const orchestrator::StrategySpec& s,
                                        std::vector<Cell> cells,
                                        const orchestrator::SweepSpec& target) {
  if (s.name == "bisect") {
    BisectionConfig bc;
    bc.lo = s.axis_lo;
    bc.hi = s.axis_hi;
    bc.tolerance = s.tolerance_us;
    bc.higher_is_more_intense = false;
    bc.min_manifested = 3;
    return std::make_unique<BisectionStrategy>(std::move(cells), bc);
  }
  CoverageConfig cc;
  cc.knob_value = s.axis_lo;
  cc.target_count = s.target_count;
  cc.batch_replicates = target.replicates;
  return std::make_unique<CoverageStrategy>(std::move(cells), cc);
}

/// The Controller plane of one target of a strategy campaign: the target
/// itself, its runs numbered from `index_base` and named "<target>:..."
/// when the target has a name.
AdaptiveSpec steered_spec(const CampaignFile& file,
                          const orchestrator::SweepSpec& target,
                          std::size_t index_base) {
  return {target, file.strategy->knob, file.strategy->max_rounds,
          target.name.empty() ? "" : target.name + ":", index_base};
}

/// The one dry-run printer: the expanded grid of a static campaign
/// (filtered to this shard), or each target's round-0 batch of a strategy
/// campaign — later rounds depend on results, so that is all it can show.
void print_plan(const CampaignFile& file, const CampaignOptions& o) {
  if (!file.strategy) {
    const auto runs = orchestrator::expand_campaign(file);
    const orchestrator::SweepSpec& only = file.targets.front();
    if (file.targets.size() == 1 && only.name.empty()) {
      std::printf(
          "dry run: %zu runs (%zu faults x %zu directions x %zu reps)\n",
          runs.size(), only.faults.size(), only.directions.size(),
          only.replicates);
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
        make_strategy(*file.strategy, planner.cells(), target);
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

/// Opens the durable log of a --spec --out campaign: one cursor over a
/// static shard's `static_runs` runs, or one per target of a strategy
/// campaign. The records it restores go through the campaign's sinks
/// before the first new run, so the monitor folds the whole campaign, and
/// --crash-after-batches counts the barriers of this invocation only.
std::unique_ptr<orchestrator::DurableLog> open_log(
    const CampaignFile& file, const CampaignOptions& o,
    const orchestrator::RunnerConfig& rc, std::size_t static_runs) {
  orchestrator::Checkpoint fresh;
  fresh.spec_digest = file.digest;
  orchestrator::DurableLog::Bound bound;
  if (file.strategy) {
    fresh.cursors.resize(file.targets.size());
    bound.rounds = file.strategy->max_rounds;
  } else {
    fresh.shard = o.shard_k;
    fresh.of = o.shard_n;
    fresh.cursors.resize(1);
    bound = {static_runs, static_runs};  // a batch holds at least one run
  }
  auto log = std::make_unique<orchestrator::DurableLog>(
      orchestrator::shard_path(o.out_path, o.shard_k, o.shard_n),
      std::move(fresh), bound, o.resume, o.timing);
  if (o.resume) {
    std::fprintf(stderr, "resuming %s: %zu records in %llu durable bytes\n",
                 log->data_file().c_str(), log->restored().size(),
                 (unsigned long long)log->checkpoint().bytes);
  }
  if (o.crash_after > 0) {
    log->after_barrier = [&data_file = log->data_file(), left = o.crash_after](
                             const orchestrator::Checkpoint&) mutable {
      if (--left == 0) crash_torn(data_file);
    };
  }
  for (const auto& record : log->restored()) {
    for (orchestrator::RecordSink* sink : rc.sinks) sink->on_record(record);
  }
  return log;
}

struct Executed {
  std::vector<RunRecord> records;  ///< run by this invocation, in order
  std::vector<std::string> notes;  ///< for the per-cell table
};

Executed run_static(const std::vector<orchestrator::RunSpec>& runs,
                    const CampaignFile& file, const CampaignOptions& o,
                    orchestrator::RunnerConfig rc,
                    orchestrator::DurableLog* log) {
  std::fprintf(stderr, "%s: %zu runs", file.name.c_str(), runs.size());
  if (o.shard_n > 1) {
    std::fprintf(stderr, " on shard %u/%u", o.shard_k, o.shard_n);
  }
  std::fprintf(stderr, "\n");
  // Progress counts the batches submitted so far; the line counts the
  // whole shard, restored runs as done.
  rc.on_progress = [restored = log == nullptr ? 0 : log->restored().size(),
                    total = runs.size()](const orchestrator::Progress& p) {
    std::fprintf(stderr, "\r%zu/%zu done, %zu failed, %zu in flight   ",
                 restored + p.completed + p.failed, total, p.failed,
                 p.in_flight);
  };
  orchestrator::Runner runner(rc);

  // Records come back indexed by run, so the file is deterministic (and,
  // without --timing, byte-identical for any --workers value).
  const std::size_t batch = o.batch != 0 ? o.batch : file.checkpoint_batch;
  Executed done;
  done.records = log == nullptr
                     ? runner.run_all(runs)
                     : orchestrator::run_sharded(runner, runs, *log, batch);
  std::fprintf(stderr, "\n");
  return done;
}

/// Per target, per round: the durable records a resume feeds back to
/// Controller::run instead of executing them again.
using Replay = std::vector<std::vector<RunRecord>>;

/// Groups the records a log restored by target and round (emission is
/// target-major, then round-major). A record's round must lie below its
/// target's durable round count and never step back, and the records must
/// fill every durable round; anything else is a tampered or foreign file,
/// refused before any round is replayed.
std::vector<Replay> read_replays(const orchestrator::DurableLog& log) {
  const auto& cursors = log.checkpoint().cursors;
  auto next = log.restored().begin();
  std::vector<Replay> replays(cursors.size());
  for (std::size_t ti = 0; ti < cursors.size(); ++ti) {
    const std::uint64_t rounds = cursors[ti].rounds;
    Replay& replay = replays[ti];
    for (std::uint64_t n = 0; n < cursors[ti].records; ++n, ++next) {
      if (next->round >= rounds || next->round + 1 < replay.size()) {
        throw std::runtime_error(
            "record out of round order in " + log.data_file() + " (run " +
            std::to_string(next->index) + " in round " +
            std::to_string(next->round) + ", target " + std::to_string(ti) +
            " has " + std::to_string(rounds) + " durable rounds)");
      }
      replay.resize(next->round + 1);
      replay[next->round].push_back(*next);
    }
    if (replay.size() != rounds) {
      throw std::runtime_error(
          log.data_file() + ": target " + std::to_string(ti) + " has " +
          std::to_string(rounds) + " durable rounds but its records fill " +
          std::to_string(replay.size()));
    }
  }
  return replays;
}

/// Strategy campaigns: one Controller per target, in file order. A durable
/// campaign commits a barrier of the target's cursor at every round
/// barrier; a resume replays the durable rounds through the strategy,
/// which re-derives and verifies each one before new rounds execute.
Executed run_steered(const CampaignFile& file, const CampaignOptions& o,
                     const orchestrator::RunnerConfig& rc,
                     orchestrator::DurableLog* log) {
  const orchestrator::StrategySpec& strat = *file.strategy;
  const std::vector<Replay> replays =
      log != nullptr ? read_replays(*log)
                     : std::vector<Replay>(file.targets.size());

  Executed done;
  std::size_t index_base = 0;
  for (std::size_t ti = 0; ti < file.targets.size(); ++ti) {
    const orchestrator::SweepSpec& target = file.targets[ti];
    const std::string label = target.name.empty() ? file.name : target.name;
    const std::size_t replayed_rounds = replays[ti].size();

    ControllerConfig cc;
    cc.runner = rc;
    cc.on_round = [&](const RoundSummary& s) {
      std::fprintf(stderr, "%s round %u: %zu runs (%zu failed), %zu total\n",
                   label.c_str(), s.round, s.runs, s.failed, s.total_runs);
      if (log != nullptr && s.round >= replayed_rounds) log->barrier(ti);
    };
    if (log != nullptr) {
      cc.on_record = [log](const RunRecord& r) { log->append(r); };
    }
    cc.early_cancel = o.early_cancel;
    AdaptiveSpec spec = steered_spec(file, target, index_base);
    const std::string prefix = spec.name_prefix;
    Controller controller(std::move(spec), std::move(cc));
    const auto strategy = make_strategy(strat, controller.cells(), target);
    auto outcome = controller.run(*strategy, replays[ti]);

    index_base += outcome.replayed + outcome.records.size();
    if (log != nullptr) log->finish(ti);
    std::fprintf(stderr, "%s: %u rounds, %s; %zu runs executed, %zu replayed\n",
                 label.c_str(), outcome.rounds,
                 outcome.converged ? "converged" : "round cap reached",
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

    const auto static_runs =
        file.strategy ? std::vector<orchestrator::RunSpec>{}
                      : orchestrator::shard_runs(
                            orchestrator::expand_campaign(file), o.shard_k,
                            o.shard_n);
    const auto log =
        durable ? open_log(file, o, rc, static_runs.size()) : nullptr;
    // The whole campaign: restored records, then this invocation's.
    std::vector<RunRecord> campaign =
        log ? log->restored() : std::vector<RunRecord>{};
    const std::size_t restored = campaign.size();

    const auto start = std::chrono::steady_clock::now();
    Executed done = file.strategy
                        ? run_steered(file, o, rc, log.get())
                        : run_static(static_runs, file, o, rc, log.get());
    const double total_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (log == nullptr) {
      std::string lines;
      for (const auto& r : done.records) {
        lines += orchestrator::to_jsonl(r, o.timing);
        lines += '\n';
      }
      if (o.out_path.empty()) {
        std::fputs(lines.c_str(), stdout);
      } else if (!(std::ofstream(o.out_path, std::ios::binary) << lines)) {
        std::fprintf(stderr, "cannot write %s\n", o.out_path.c_str());
        return 1;
      }
    }
    campaign.insert(campaign.end(),
                    std::make_move_iterator(done.records.begin()),
                    std::make_move_iterator(done.records.end()));
    // Throughput counts this invocation's runs; the report and the exit
    // code cover the whole campaign, restored records included.
    const auto executed =
        std::span<const RunRecord>(campaign).subspan(restored);
    if (!o.bench_out_path.empty() &&
        !write_bench_out(o.bench_out_path, executed, total_s)) {
      return 1;
    }

    if (!campaign.empty()) {
      auto report = orchestrator::summarize(
          file.strategy ? file.name + " [" + file.strategy->name + "]"
                        : file.name,
          campaign);
      report.add_note(nftape::cell(
          "%.1f s wall, %.2f runs/s", total_s,
          static_cast<double>(executed.size()) / total_s));
      std::fprintf(stderr, "\n%s", report.render().c_str());
      auto cells = orchestrator::cell_summary("per-cell manifestation rates",
                                              campaign);
      for (auto& note : done.notes) cells.add_note(std::move(note));
      std::fprintf(stderr, "\n%s", cells.render().c_str());
    }
    if (o.monitor) {
      std::fprintf(stderr, "\n%s",
                   service.table("monitor (final)").render().c_str());
    }
    for (const auto& r : campaign) {
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
