#include "orchestrator/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "analysis/accumulator.hpp"
#include "analysis/manifestation.hpp"
#include "nftape/fabric.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/jsonl.hpp"
#include "sim/time.hpp"

namespace hsfi::orchestrator {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Startup settle under the watchdog, chunked at the poll interval.
void settle_startup(nftape::Fabric& fabric, sim::Duration span,
                    const nftape::RunControl& control) {
  sim::Duration elapsed = 0;
  const sim::Duration chunk =
      control.poll_interval > 0 ? control.poll_interval : span;
  sim::Duration left = span;
  while (left > 0) {
    if (control.should_cancel && control.should_cancel(elapsed)) {
      throw nftape::RunCancelled("cancelled during testbed startup");
    }
    const sim::Duration step = left < chunk ? left : chunk;
    fabric.settle(step);
    elapsed += step;
    left -= step;
  }
}

/// The production executor: a private Fabric per run (thread isolation),
/// realized for the campaign's medium, startup settle under the watchdog,
/// then the campaign itself.
nftape::CampaignResult default_execute(const RunSpec& run,
                                       const nftape::RunControl& control) {
  const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->start();
  settle_startup(*fabric, run.startup_settle, control);
  // Seed the campaign with the settle-phase elapsed so the watchdog sees
  // one accumulator across both phases: a run livelocked astride the phase
  // boundary must not get a second, fresh sim-time budget.
  nftape::CampaignRunner runner(*fabric);
  return runner.run(run.campaign, &control, run.startup_settle);
}

}  // namespace

/// One worker's snapshot cache: the settled fabric and its captured state,
/// valid while `snap` is set. The key normalizes the testbed seed to zero
/// because the per-run seed is re-derived inside CampaignRunner::run by
/// reset_to_known_good — any two runs differing only by seed share the
/// same settled trajectory (the settle phase draws nothing from the
/// per-run streams), hence one cell.
struct Runner::SnapshotCache {
  nftape::Medium medium = nftape::Medium::kMyrinet;
  sim::Duration startup_settle = 0;
  nftape::TestbedConfig config;  ///< seed-normalized cell key
  std::unique_ptr<nftape::Fabric> fabric;
  std::unique_ptr<nftape::FabricSnapshot> snap;
};

nftape::CampaignResult Runner::snapshot_execute(
    const RunSpec& run, const nftape::RunControl& control,
    SnapshotCache& cache) {
  nftape::TestbedConfig norm = run.testbed;
  norm.seed = 0;
  const bool hit = cache.snap && cache.medium == run.campaign.medium &&
                   cache.startup_settle == run.startup_settle &&
                   cache.config == norm;
  if (hit) {
    cache.fabric->restore_snapshot(*cache.snap);
  } else {
    cache.snap.reset();
    cache.fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
    cache.fabric->start();
    settle_startup(*cache.fabric, run.startup_settle, control);
    cache.snap = cache.fabric->capture_snapshot();
    cache.medium = run.campaign.medium;
    cache.startup_settle = run.startup_settle;
    cache.config = norm;
  }
  // Either way the fabric now sits at the settle boundary. Credit the
  // settle span to the watchdog accumulator exactly like a cold start, so
  // one budget covers the whole (virtual) run.
  nftape::CampaignRunner runner(*cache.fabric);
  return runner.run(run.campaign, &control, run.startup_settle);
}

std::string_view to_string(RunOutcome o) noexcept {
  switch (o) {
    case RunOutcome::kOk: return "ok";
    case RunOutcome::kTimedOut: return "timed_out";
    case RunOutcome::kError: return "error";
    case RunOutcome::kSkipped: return "skipped";
  }
  return "?";
}

namespace {

/// A number written with `decimals` fixed digits, as `value / per_unit`
/// (window_ms is picoseconds over kMillisecond).
template <class T>
struct Fixed {
  T& value;
  double per_unit;
  int decimals;
};
template <class T>
Fixed(T&, double, int) -> Fixed<T>;

template <class T>
inline constexpr bool kIsFixed = false;
template <class T>
inline constexpr bool kIsFixed<Fixed<T>> = true;

/// The JSONL record schema: every field in emission order, with the
/// condition under which it is written. to_jsonl walks it with a
/// FieldWriter and parse_jsonl with a FieldReader, so no key is spelled
/// twice and the two cannot drift. `R` is RunRecord or const RunRecord;
/// a field passed as const is derived from the others: written, and only
/// type-checked on read.
template <class R, class V>
void record_fields(R& r, V& v, bool include_timing) {
  auto& res = r.result;
  auto& c = res.counters;
  const bool ok = r.outcome == RunOutcome::kOk;
  const bool steered = !r.strategy.empty();
  const double loss_pct = 100.0 * res.loss_rate();
  const std::uint64_t duplicates = res.duplicates();
  v("run", r.index);
  v.required("name", r.name);
  v("seed", r.seed);
  // Provenance only when set, so each record kind keeps the exact format
  // it had before the field existed: medium off Myrinet, round and
  // strategy on steered runs, scenario on scenario runs.
  v("medium", r.medium, r.medium != nftape::Medium::kMyrinet);
  v("round", r.round, steered);
  v("strategy", r.strategy, steered);
  v("scenario", r.scenario, !r.scenario.empty());
  v.required("outcome", r.outcome);
  v("attempts", r.attempts);
  v("timeouts", r.timeouts);
  v("error", r.error, !r.error.empty());
  // Results only for a run that produced them.
  v("sent", c.messages_sent, ok);
  v("received", c.messages_received, ok);
  v("loss_pct", Fixed{loss_pct, 1.0, 4}, ok);
  v("window_ms", Fixed{res.window, static_cast<double>(sim::kMillisecond), 3},
    ok);
  v("injections", c.injections, ok);
  v("crc_errors", c.crc_errors, ok);
  v("marker_errors", c.marker_errors, ok);
  v("ring_overflows", c.ring_overflows, ok);
  v("udp_drops", c.checksum_drops, ok);
  v("misaddressed", c.misaddressed, ok);
  v("unroutable", c.unroutable, ok);
  v("unknown_type", c.unknown_type, ok);
  v("tx_drops", c.tx_drops, ok);
  v("slack_overflow", c.slack_overflow, ok);
  v("long_timeouts", c.long_timeouts, ok);
  v("duplicates", duplicates, ok);
  v("events", res.events_executed, ok);
  for (const auto m : analysis::all_manifestations()) {
    v(analysis::jsonl_key(m), res.manifestations[m], ok);
  }
  v("secondary_effects", res.secondary_effects, ok);
  const bool fc = ok && r.medium == nftape::Medium::kFc;
  v("fc_credit_stalls", c.credit_stalls, fc);
  v("fc_seq_aborts", c.sequences_aborted, fc);
  v("steps", c.scenario_steps, ok && !r.scenario.empty());
  v("wall_ms", Fixed{r.wall_ms, 1.0, 3}, include_timing);
}

struct FieldWriter {
  JsonObject& out;

  template <class T>
  void operator()(std::string_view key, const T& field, bool when = true) {
    if (!when) return;
    if constexpr (kIsFixed<T>) {
      out.add_fixed(key, static_cast<double>(field.value) / field.per_unit,
                    field.decimals);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out.add(key, field);
    } else if constexpr (std::is_enum_v<T>) {
      out.add(key, to_string(field));
    } else if constexpr (std::is_signed_v<T>) {
      out.add_i64(key, field);
    } else {
      out.add_u64(key, field);
    }
  }
  template <class T>
  void required(std::string_view key, const T& field) {
    (*this)(key, field);
  }
};

bool parse_enum(std::string_view s, RunOutcome& out) {
  for (const auto o : {RunOutcome::kOk, RunOutcome::kTimedOut,
                       RunOutcome::kError, RunOutcome::kSkipped}) {
    if (to_string(o) == s) {
      out = o;
      return true;
    }
  }
  return false;
}

bool parse_enum(std::string_view s, nftape::Medium& out) {
  const auto m = nftape::parse_medium(s);
  if (m) out = *m;
  return m.has_value();
}

class FieldReader {
 public:
  explicit FieldReader(const JsonValue& doc) : doc_(doc) {}

  /// Reads `key` when the line carries it; the write condition is moot.
  template <class F>
  void operator()(std::string_view key, F&& field, bool /*when*/ = true) {
    if (const JsonValue* v = doc_.find(key)) ok_ = ok_ && read(*v, field);
  }
  /// Like operator(), but the line must carry the field, and text must
  /// not be empty.
  template <class F>
  void required(std::string_view key, F& field) {
    const JsonValue* v = doc_.find(key);
    ok_ = ok_ && v != nullptr && read(*v, field);
    if constexpr (std::is_same_v<F, std::string>) ok_ = ok_ && !field.empty();
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  template <class T>
  static bool read(const JsonValue& v, T& field) {
    if constexpr (kIsFixed<T>) {
      double d = 0.0;
      if (!v.as_double(d) || !std::isfinite(d)) return false;
      using U = std::remove_reference_t<decltype(field.value)>;
      if constexpr (std::is_integral_v<U> && !std::is_const_v<U>) {
        // At most 10^18 (11.6 days of picoseconds): a round figure in the
        // written unit, so whatever is written back reads back too.
        d *= field.per_unit;
        if (!(d >= 0.0 && d <= 1e18)) return false;
        field.value = static_cast<U>(std::llround(d));
      } else if constexpr (!std::is_const_v<U>) {
        field.value = d;
      }
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (v.kind != JsonValue::Kind::kString) return false;
      field = v.text;
      return true;
    } else if constexpr (std::is_enum_v<T>) {
      return v.kind == JsonValue::Kind::kString && parse_enum(v.text, field);
    } else {
      std::uint64_t n = 0;
      if (!v.as_u64(n)) return false;
      if constexpr (!std::is_const_v<T>) {
        if (n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
          return false;
        }
        field = static_cast<T>(n);
      }
      return true;
    }
  }

  const JsonValue& doc_;
  bool ok_ = true;
};

}  // namespace

std::string to_jsonl(const RunRecord& r, bool include_timing) {
  JsonObject o;
  FieldWriter writer{o};
  record_fields(r, writer, include_timing);
  return o.str();
}

std::optional<RunRecord> parse_jsonl(std::string_view line) {
  const auto doc = parse_json(line);
  if (!doc || doc->kind != JsonValue::Kind::kObject) return std::nullopt;
  RunRecord rec;
  FieldReader reader(*doc);
  record_fields(rec, reader, /*include_timing=*/true);
  if (!reader.ok()) return std::nullopt;
  return rec;
}

nftape::Report summarize(const std::string& title,
                         const std::vector<RunRecord>& records) {
  nftape::Report report(title);
  report.set_header({"run", "name", "outcome", "attempts", "sent", "received",
                     "loss", "dups", "injections", "manifestations"});
  std::size_t ok = 0, timed_out = 0, errors = 0, skipped = 0;
  std::uint64_t duplicates = 0;
  double wall_ms = 0.0;
  for (const auto& r : records) {
    const auto& res = r.result;
    const auto& c = res.counters;
    report.add_row(
        {nftape::cell("%zu", r.index), r.name,
         std::string(to_string(r.outcome)), nftape::cell("%d", r.attempts),
         nftape::cell("%llu", (unsigned long long)c.messages_sent),
         nftape::cell("%llu", (unsigned long long)c.messages_received),
         nftape::cell("%.2f%%", 100.0 * res.loss_rate()),
         nftape::cell("%llu", (unsigned long long)res.duplicates()),
         nftape::cell("%llu", (unsigned long long)c.injections),
         analysis::describe(res.manifestations)});
    duplicates += res.duplicates();
    wall_ms += r.wall_ms;
    switch (r.outcome) {
      case RunOutcome::kOk: ++ok; break;
      case RunOutcome::kTimedOut: ++timed_out; break;
      case RunOutcome::kError: ++errors; break;
      case RunOutcome::kSkipped: ++skipped; break;
    }
  }
  report.add_note(nftape::cell(
      "%zu ok, %zu timed out, %zu errored; %.1f s of worker wall time", ok,
      timed_out, errors, wall_ms / 1e3));
  if (skipped != 0) {
    report.add_note(nftape::cell(
        "%zu skipped (early-cancelled)", skipped));
  }
  if (duplicates != 0) {
    report.add_note(nftape::cell(
        "%llu duplicate deliveries (received > sent; not counted as loss)",
        (unsigned long long)duplicates));
  }
  return report;
}

std::string cell_key(std::string_view run_name) {
  const auto first = run_name.find('/');
  if (first != std::string_view::npos) {
    const auto second = run_name.find('/', first + 1);
    if (second != std::string_view::npos) {
      return std::string(run_name.substr(0, second));
    }
  }
  return std::string(run_name);
}

void fold_run(analysis::CellStats& cell, const RunRecord& record) {
  const auto& res = record.result;
  cell.fold(record.outcome == RunOutcome::kOk, res.manifestations,
            res.counters.injections, res.duplicates(),
            &res.manifestation_latency);
}

nftape::Report cell_summary(const std::string& title,
                            const std::vector<RunRecord>& records) {
  std::map<std::string, analysis::CellStats> cells;
  for (const auto& r : records) fold_run(cells[cell_key(r.name)], r);

  nftape::Report report(title);
  report.set_header({"cell", "runs", "injections", "manifested (Wilson 95%)",
                     "dups", "classes"});
  for (const auto& [name, stats] : cells) {
    report.add_row({name, nftape::cell("%llu", (unsigned long long)stats.runs),
                    nftape::cell("%llu", (unsigned long long)stats.injections),
                    nftape::rate_cell(stats.manifested(), stats.injections),
                    nftape::cell("%llu", (unsigned long long)stats.duplicates),
                    analysis::describe(stats.manifestations)});
  }
  return report;
}

Runner::Runner(RunnerConfig config) : config_(std::move(config)) {}

Runner::~Runner() = default;

namespace {

/// Identity fields every record carries, executed or not.
void stamp_identity(const RunSpec& run, RunRecord& rec) {
  rec.index = run.index;
  rec.name = run.campaign.name;
  rec.seed = run.seed;
  rec.medium = run.campaign.medium;
  rec.round = run.round;
  rec.strategy = run.strategy;
  if (run.campaign.scenario) rec.scenario = run.campaign.scenario->name;
}

}  // namespace

void Runner::execute_one(const RunSpec& run, RunRecord& rec,
                         std::size_t worker) {
  stamp_identity(run, rec);

  // Auto simulated-time cap: generous for a healthy run of this spec's own
  // span, fatal for a livelocked simulation. Uses the spec's actual guard
  // settles so a campaign with long guards gets a budget that covers them.
  const sim::Duration span = run.startup_settle + run.campaign.program_guard +
                             run.campaign.disarm_guard +
                             run.campaign.warmup + run.campaign.duration +
                             run.campaign.drain + run.testbed.map_period +
                             run.testbed.map_reply_window;
  const sim::Duration sim_cap =
      config_.sim_limit > 0 ? config_.sim_limit : 8 * span;
  const int attempts_allowed =
      1 + (config_.max_retries > 0 ? config_.max_retries : 0);

  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    nftape::RunControl control;
    control.poll_interval = config_.poll_interval;
    control.should_cancel = [this, start, sim_cap](sim::Duration elapsed) {
      if (config_.wall_limit.count() > 0 &&
          std::chrono::steady_clock::now() - start >= config_.wall_limit) {
        return true;
      }
      return elapsed >= sim_cap;
    };
    ++rec.attempts;
    try {
      auto result =
          config_.executor
              ? config_.executor(run, control)
              : (config_.snapshots
                     ? snapshot_execute(run, control, *caches_[worker])
                     : default_execute(run, control));
      rec.wall_ms += ms_since(start);
      rec.result = std::move(result);
      rec.outcome = RunOutcome::kOk;
      rec.error.clear();
      return;
    } catch (const nftape::RunCancelled& e) {
      rec.wall_ms += ms_since(start);
      ++rec.timeouts;
      rec.outcome = RunOutcome::kTimedOut;
      rec.error = e.what();
    } catch (const std::exception& e) {
      rec.wall_ms += ms_since(start);
      rec.outcome = RunOutcome::kError;
      rec.error = e.what();
    }
  }
}

std::vector<RunRecord> Runner::run_all(const std::vector<RunSpec>& runs) {
  progress_ = Progress{};
  return run_batch(runs);
}

std::vector<RunRecord> Runner::run_batch(const std::vector<RunSpec>& runs) {
  std::vector<RunRecord> records(runs.size());
  if (runs.empty()) return records;

  std::size_t workers = config_.workers != 0
                            ? config_.workers
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, runs.size());

  // Per-worker snapshot caches, created lazily and kept across batches so
  // closed-loop rounds reuse settled fabrics (only touched by the owning
  // worker's thread while the pool runs).
  if (config_.snapshots) {
    while (caches_.size() < workers) {
      caches_.push_back(std::make_unique<SnapshotCache>());
    }
  }

  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards progress, on_progress and the sinks
  Progress& progress = progress_;
  progress.total += runs.size();

  const auto work = [&](std::size_t worker) {
    for (;;) {
      const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= runs.size()) return;
      // Early-cancel: a closed-loop controller may have resolved this run's
      // cell while it sat in the queue. Polled outside the mutex (should_skip is
      // thread-safe by contract); the record still flows through the sinks
      // so the stream stays one-record-per-run.
      const bool skip =
          config_.should_skip && config_.should_skip(runs[idx]);
      if (skip) {
        RunRecord& rec = records[idx];
        stamp_identity(runs[idx], rec);
        rec.outcome = RunOutcome::kSkipped;
        rec.error = "skipped: cell resolved by early-cancel";
      } else {
        {
          const std::lock_guard<std::mutex> lock(mu);
          ++progress.in_flight;
          if (config_.on_progress) config_.on_progress(progress);
        }
        execute_one(runs[idx], records[idx], worker);
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        const RunRecord& rec = records[idx];
        switch (rec.outcome) {
          case RunOutcome::kOk: ++progress.completed; break;
          case RunOutcome::kSkipped: ++progress.skipped; break;
          default: ++progress.failed; break;
        }
        if (!skip) --progress.in_flight;
        if (rec.attempts > 1) {
          progress.retries += static_cast<std::size_t>(rec.attempts - 1);
        }
        for (RecordSink* sink : config_.sinks) sink->on_record(rec);
        if (config_.on_progress) config_.on_progress(progress);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(work, i);
  for (auto& t : pool) t.join();
  return records;
}

}  // namespace hsfi::orchestrator
