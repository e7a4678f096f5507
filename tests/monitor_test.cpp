// Streaming analysis plane tests.
//
// The load-bearing property: monitoring is observation, never perturbation.
//  * The service's cells, folded record-by-record, in any order, or
//    merged from shards, are bit-identical to one batch fold
//    (analysis::CellStats) over the same runs.
//  * Attaching a MonitorService sink to the golden 8-run mini-campaign
//    leaves the JSONL byte-identical and the kernel event digest equal to
//    the committed tests/golden/mini_campaign.digest.
//  * A monitored adaptive campaign (bisect and coverage) in deterministic
//    mode emits byte-identical JSONL to an unmonitored one, for 1 and 8
//    workers.
//  * Live mode (early_cancel) actually cancels: skipped records appear
//    once a cell's round is resolved.
//  * The drift detector fires on a planted manifestation-rate anomaly
//    between media and on a planted latency-distribution shift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/controller.hpp"
#include "adaptive/strategy.hpp"
#include "analysis/accumulator.hpp"
#include "monitor/drift.hpp"
#include "monitor/jsonl_reader.hpp"
#include "monitor/service.hpp"
#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "sim/rng.hpp"

namespace {

using namespace hsfi;
using analysis::Manifestation;
using myrinet::ControlSymbol;

// ---------------------------------------------------------------------------
// Synthetic run records (no simulation): deterministic functions of an
// index, with every field the monitor folds exercised.

orchestrator::RunRecord synth_record(std::size_t i, const std::string& cell,
                                     nftape::Medium medium = nftape::Medium::kMyrinet) {
  const std::uint64_t h = sim::splitmix64(i + 1);
  orchestrator::RunRecord rec;
  rec.index = i;
  rec.name = cell + "/base/r" + std::to_string(i);
  rec.seed = h;
  rec.medium = medium;
  rec.outcome = (h % 7 == 0) ? orchestrator::RunOutcome::kTimedOut
                             : orchestrator::RunOutcome::kOk;
  rec.attempts = 1;
  auto& r = rec.result;
  r.medium = medium;
  r.counters.messages_sent = 100 + (h % 50);
  // Some runs deliver duplicates.
  r.counters.messages_received = r.counters.messages_sent - (h % 9) + (h % 3);
  r.counters.injections = 20 + (h % 13);
  auto& b = r.manifestations;
  b[Manifestation::kCrcDropped] = h % 5;
  b[Manifestation::kMisrouted] = h % 2;
  b[Manifestation::kDroppedOther] = (h >> 8) % 4;
  b[Manifestation::kTimeout] = (h >> 16) % 2;
  b[Manifestation::kMasked] =
      r.counters.injections - b[Manifestation::kCrcDropped] -
      b[Manifestation::kMisrouted] - b[Manifestation::kDroppedOther] -
      b[Manifestation::kTimeout];
  for (std::uint64_t s = 0; s < 3 + (h % 4); ++s) {
    r.manifestation_latency.add(sim::microseconds(
        static_cast<std::int64_t>(1 + ((h >> (4 * s)) % 900))));
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Streaming == batch, bit for bit.

TEST(MonitorFold, OneAtATimeShuffledAndShardedMatchBatch) {
  constexpr std::size_t kRuns = 240;
  std::vector<orchestrator::RunRecord> records;
  records.reserve(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    records.push_back(synth_record(i, "fault/both"));
  }

  // Batch reference: every record folded into one cell, as cell_summary
  // does at the end of a campaign.
  analysis::CellStats expected;
  for (const auto& rec : records) orchestrator::fold_run(expected, rec);
  ASSERT_GT(expected.injections, 0u);
  ASSERT_GT(expected.latency.count(), 0u);

  // One record at a time, emission order.
  monitor::MonitorService streamed;
  for (const auto& rec : records) streamed.on_record(rec);
  EXPECT_EQ(streamed.cell("fault/both"), expected);

  // Deterministically shuffled order (folding is commutative).
  std::vector<std::size_t> order(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) order[i] = i;
  std::mt19937 rng(1234);
  std::shuffle(order.begin(), order.end(), rng);
  monitor::MonitorService shuffled;
  for (const std::size_t i : order) shuffled.on_record(records[i]);
  EXPECT_EQ(shuffled.cell("fault/both"), expected);

  // Four shards merged (folding is associative).
  monitor::MonitorService shards[4];
  for (std::size_t i = 0; i < kRuns; ++i) shards[i % 4].on_record(records[i]);
  analysis::CellStats merged;
  for (const auto& shard : shards) merged.merge(shard.cell("fault/both"));
  EXPECT_EQ(merged, expected);
}

// ---------------------------------------------------------------------------
// Golden monitored mini-campaign: the sink changes nothing.

/// FNV-1a over (fire time, execution ordinal, schedule ordinal) — the same
/// digest golden_trace_test commits to tests/golden/mini_campaign.digest.
struct Fnv1a {
  std::uint64_t state = 1469598103934665603ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xFF;
      state *= 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string hex() const {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)state);
    return buffer;
  }
};

/// The golden probe, identical to golden_trace_test's mini_sweep().
orchestrator::SweepSpec mini_sweep() {
  orchestrator::SweepSpec sweep;
  sweep.name = "mini";
  sweep.base_seed = 7;
  sweep.replicates = 2;
  sweep.startup_settle = sim::milliseconds(150);
  sweep.directions = {orchestrator::FaultDirection::kFromSwitch,
                      orchestrator::FaultDirection::kBoth};
  sweep.faults.push_back(
      {"go-stop", nftape::control_symbol_corruption(ControlSymbol::kGo,
                                                    ControlSymbol::kStop), ""});
  sweep.faults.push_back({"seu-00FF", nftape::random_bit_flip_seu(0x00FF), ""});

  sweep.testbed.map_period = sim::milliseconds(100);
  sweep.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  sweep.testbed.send_stack_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(5);
  sweep.base.duration = sim::milliseconds(15);
  sweep.base.drain = sim::milliseconds(5);
  sweep.base.workload.udp_interval = sim::microseconds(12);
  sweep.base.workload.burst_size = 4;
  sweep.base.workload.jitter = 0.5;
  sweep.base.workload.payload_size = 256;
  return sweep;
}

struct MiniOutput {
  std::string jsonl;
  std::string digest;  ///< combined per-run event digest (index order)
};

MiniOutput run_mini(std::size_t workers, monitor::MonitorService* service) {
  const auto runs = orchestrator::expand(mini_sweep());
  std::vector<std::string> digests(runs.size());

  orchestrator::RunnerConfig rc;
  rc.workers = workers;
  if (service != nullptr) rc.sinks.push_back(service);
  rc.executor = [&digests](const orchestrator::RunSpec& run,
                           const nftape::RunControl& control) {
    Fnv1a digest;
    nftape::MyrinetFabric fabric(run.testbed);
    fabric.sim().set_event_observer(
        [&digest](sim::SimTime when, std::uint64_t exec_seq,
                  std::uint64_t schedule_seq) {
          digest.i64(when);
          digest.u64(exec_seq);
          digest.u64(schedule_seq);
        });
    fabric.start();
    fabric.settle(run.startup_settle);
    nftape::CampaignRunner runner(fabric);
    auto result = runner.run(run.campaign, &control);
    digests[run.index] = digest.hex();
    return result;
  };

  const auto records = orchestrator::Runner(rc).run_all(runs);
  MiniOutput out;
  std::ostringstream lines;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, orchestrator::RunOutcome::kOk)
        << "run " << r.index << ": " << r.error;
    lines << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
  }
  out.jsonl = lines.str();
  Fnv1a all;
  for (const auto& d : digests) {
    for (const char ch : d) all.u64(static_cast<std::uint8_t>(ch));
  }
  out.digest = all.hex();
  return out;
}

TEST(GoldenMonitored, SinkLeavesCampaignByteIdentical) {
  const auto bare = run_mini(1, nullptr);

  monitor::MonitorService service;
  const auto monitored = run_mini(1, &service);
  EXPECT_EQ(monitored.jsonl, bare.jsonl)
      << "attaching the monitor sink must not change the JSONL";
  EXPECT_EQ(monitored.digest, bare.digest)
      << "attaching the monitor sink must not change kernel event order";
  EXPECT_EQ(service.records(), 8u);

  monitor::MonitorService pooled_service;
  const auto pooled = run_mini(4, &pooled_service);
  EXPECT_EQ(pooled.jsonl, bare.jsonl)
      << "monitored JSONL must stay byte-identical across worker counts";

  // Completion order differs between 1 and 4 workers, but the streaming
  // state is fold-order-independent: both services agree cell by cell.
  const auto serial_cells = service.cells();
  const auto pooled_cells = pooled_service.cells();
  ASSERT_EQ(serial_cells.size(), pooled_cells.size());
  for (std::size_t i = 0; i < serial_cells.size(); ++i) {
    EXPECT_EQ(serial_cells[i].cell, pooled_cells[i].cell);
    EXPECT_EQ(serial_cells[i].stats, pooled_cells[i].stats);
  }

  // And the event digest still matches the committed golden file.
  std::ifstream in(std::string(HSFI_GOLDEN_DIR) + "/mini_campaign.digest");
  ASSERT_TRUE(in) << "missing tests/golden/mini_campaign.digest";
  std::string expected;
  in >> expected;
  EXPECT_EQ(monitored.digest, expected)
      << "monitored campaign diverged from the committed golden digest";
}

// ---------------------------------------------------------------------------
// Monitored adaptive campaigns: deterministic mode is byte-identical.

/// Synthetic executor: a pure function of the run spec, so adaptive
/// campaigns are fast and any divergence is attributable to the streaming
/// plumbing, not the simulation. Manifestation depends on the udp-interval
/// knob (<= 50 us = intense) and the seed adds per-replicate variety.
nftape::CampaignResult synth_executor(const orchestrator::RunSpec& run,
                                      const nftape::RunControl&) {
  nftape::CampaignResult r;
  r.name = run.campaign.name;
  r.medium = run.campaign.medium;
  const double us =
      sim::to_nanoseconds(run.campaign.workload.udp_interval) / 1000.0;
  r.counters.messages_sent = 100;
  r.counters.messages_received = 97;
  r.window = sim::milliseconds(1);
  r.counters.injections = 10;
  const bool intense = us <= 50.0;
  const std::uint64_t manifested = intense ? 4 + (run.seed % 3) : 0;
  r.manifestations[Manifestation::kDroppedOther] = manifested;
  r.manifestations[Manifestation::kMasked] = r.counters.injections - manifested;
  for (std::uint64_t s = 0; s < manifested; ++s) {
    r.manifestation_latency.add(
        sim::microseconds(static_cast<std::int64_t>(5 + s)));
  }
  return r;
}

adaptive::AdaptiveSpec synth_spec() {
  adaptive::AdaptiveSpec spec;
  spec.name = "synthetic";
  spec.faults.push_back({"fa", std::nullopt, ""});
  spec.faults.push_back({"fb", std::nullopt, ""});
  spec.knob = nftape::Knob::kUdpIntervalUs;
  spec.base_seed = 11;
  spec.max_rounds = 12;
  return spec;
}

struct AdaptiveOutput {
  std::string jsonl;
  std::size_t records = 0;
  std::size_t skipped = 0;
  std::uint64_t monitored = 0;  ///< records the service folded
};

enum class Kind { kBisect, kCoverage };

AdaptiveOutput run_adaptive(Kind kind, std::size_t workers, bool monitored,
                            bool early_cancel, std::size_t replicates = 2) {
  const auto spec = synth_spec();
  adaptive::ControllerConfig cc;
  cc.runner.workers = workers;
  cc.runner.executor = synth_executor;
  monitor::MonitorService service;
  if (monitored) cc.runner.sinks.push_back(&service);
  cc.early_cancel = early_cancel;
  adaptive::Controller controller(spec, std::move(cc));

  std::unique_ptr<adaptive::Strategy> strategy;
  if (kind == Kind::kBisect) {
    adaptive::BisectionConfig bc;
    bc.lo = 10.0;
    bc.hi = 90.0;
    bc.tolerance = 5.0;
    bc.higher_is_more_intense = false;  // smaller interval = more traffic
    bc.replicates = replicates;
    bc.min_manifested = 1;
    strategy = std::make_unique<adaptive::BisectionStrategy>(
        controller.cells(), bc);
  } else {
    adaptive::CoverageConfig cov;
    cov.knob_value = 12.0;  // intense: dropped_other appears
    cov.target_count = 2;
    cov.batch_replicates = replicates;
    cov.min_injections = 40;
    cov.hopeless_rate = 0.1;
    strategy = std::make_unique<adaptive::CoverageStrategy>(
        controller.cells(), cov);
  }

  const auto outcome = controller.run(*strategy);
  AdaptiveOutput out;
  std::ostringstream lines;
  for (const auto& r : outcome.records) {
    if (r.outcome == orchestrator::RunOutcome::kSkipped) ++out.skipped;
    lines << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
  }
  out.jsonl = lines.str();
  out.records = outcome.records.size();
  out.monitored = service.records();
  EXPECT_FALSE(out.jsonl.empty());
  return out;
}

TEST(StreamingAdaptive, BisectDeterministicModeIsByteIdentical) {
  const auto batch = run_adaptive(Kind::kBisect, 1, false, false);
  const auto fed1 = run_adaptive(Kind::kBisect, 1, true, false);
  const auto fed8 = run_adaptive(Kind::kBisect, 8, true, false);
  const auto batch8 = run_adaptive(Kind::kBisect, 8, false, false);
  EXPECT_EQ(fed1.jsonl, batch.jsonl)
      << "monitoring (deterministic mode) must not change the records";
  EXPECT_EQ(fed8.jsonl, batch.jsonl)
      << "monitored campaign must be byte-identical across 1 vs 8 workers";
  EXPECT_EQ(batch8.jsonl, batch.jsonl);
  EXPECT_EQ(fed1.skipped, 0u);
  // Every record of the campaign reached the service.
  EXPECT_EQ(fed1.monitored, fed1.records);
  EXPECT_EQ(fed8.monitored, fed8.records);
}

TEST(StreamingAdaptive, CoverageDeterministicModeIsByteIdentical) {
  const auto batch = run_adaptive(Kind::kCoverage, 1, false, false);
  const auto fed1 = run_adaptive(Kind::kCoverage, 1, true, false);
  const auto fed8 = run_adaptive(Kind::kCoverage, 8, true, false);
  EXPECT_EQ(fed1.jsonl, batch.jsonl);
  EXPECT_EQ(fed8.jsonl, batch.jsonl)
      << "monitored coverage campaign must not depend on worker count";
  EXPECT_EQ(fed1.skipped, 0u);
  EXPECT_EQ(fed8.monitored, fed8.records);
}

TEST(StreamingAdaptive, EarlyCancelSkipsResolvedCells) {
  // Live mode, one worker: completion order is request order, so once a
  // midpoint replicate manifests (min_manifested = 1), the cell's
  // remaining replicates of that round must come back skipped.
  const auto live =
      run_adaptive(Kind::kBisect, 1, true, true, /*replicates=*/6);
  EXPECT_GT(live.skipped, 0u)
      << "early-cancel never skipped anything despite resolved cells";
  // Skipped records still flow through the sinks (they are real records).
  EXPECT_EQ(live.monitored, live.records);
}

// ---------------------------------------------------------------------------
// Drift detection.

orchestrator::RunRecord planted_record(std::size_t i, nftape::Medium medium,
                                       std::uint64_t manifested,
                                       std::uint64_t injections) {
  orchestrator::RunRecord rec;
  rec.index = i;
  rec.name = "seu-00FF/both/base/r" + std::to_string(i);
  rec.seed = i;
  rec.medium = medium;
  rec.outcome = orchestrator::RunOutcome::kOk;
  rec.result.medium = medium;
  rec.result.counters.messages_sent = 10;
  rec.result.counters.messages_received = 10;
  rec.result.counters.injections = injections;
  rec.result.manifestations[Manifestation::kDroppedOther] = manifested;
  rec.result.manifestations[Manifestation::kMasked] = injections - manifested;
  return rec;
}

TEST(Drift, RateDivergenceFiresOnPlantedAnomaly) {
  monitor::MonitorService service;
  // Same cell on both media: ~10% on Myrinet, ~60% on FC, 100 firings per
  // side — the Wilson 95% intervals are far apart.
  for (std::size_t i = 0; i < 10; ++i) {
    service.on_record(planted_record(i, nftape::Medium::kMyrinet, 1, 10));
    service.on_record(planted_record(i, nftape::Medium::kFc, 6, 10));
  }
  const auto flags = service.drift_flags();
  ASSERT_EQ(flags.size(), 1u) << "expected exactly the planted divergence";
  EXPECT_EQ(flags[0].kind, monitor::DriftKind::kRateDivergence);
  EXPECT_EQ(flags[0].cell, "seu-00FF/both");
  EXPECT_EQ(flags[0].group_a, "fc");
  EXPECT_EQ(flags[0].group_b, "myrinet");
  EXPECT_GT(flags[0].value, 0.0);
  EXPECT_NE(flags[0].describe().find("rate-divergence"), std::string::npos);

  // The live table flags the same cells.
  const auto table = service.table("t").render();
  EXPECT_NE(table.find("rate!"), std::string::npos);
}

TEST(Drift, NoDivergenceOnMatchedRates) {
  monitor::MonitorService service;
  for (std::size_t i = 0; i < 10; ++i) {
    service.on_record(planted_record(i, nftape::Medium::kMyrinet, 3, 10));
    service.on_record(planted_record(i, nftape::Medium::kFc, 3, 10));
  }
  EXPECT_TRUE(service.drift_flags().empty());
}

TEST(Drift, RateDivergenceNeedsMinInjections) {
  // 5 vs 5 firings at wildly different rates: below the floor, no flag.
  monitor::DriftConfig config;
  EXPECT_FALSE(monitor::rate_divergence(0, 5, 5, 5, config).has_value());
  // At the floor with disjoint intervals: flag with a positive gap.
  const auto gap = monitor::rate_divergence(5, 100, 60, 100, config);
  ASSERT_TRUE(gap.has_value());
  EXPECT_GT(*gap, 0.0);
}

TEST(Drift, LatencyShiftDetectsMovedDistribution) {
  monitor::DriftConfig config;
  config.baseline_runs = 2;
  config.window_runs = 2;
  config.min_latency_samples = 8;
  monitor::LatencyDrift drift(config);

  const auto histogram_at = [](sim::Duration d, int samples) {
    analysis::Histogram h;
    for (int i = 0; i < samples; ++i) h.add(d);
    return h;
  };

  // Baseline: everything in the microsecond decade.
  drift.add(histogram_at(sim::microseconds(2), 8));
  EXPECT_FALSE(drift.shift().has_value()) << "baseline still filling";
  drift.add(histogram_at(sim::microseconds(3), 8));
  EXPECT_FALSE(drift.shift().has_value()) << "window still empty";

  // Window: the distribution moved to the tens-of-milliseconds decade.
  drift.add(histogram_at(sim::milliseconds(40), 8));
  drift.add(histogram_at(sim::milliseconds(50), 8));
  const auto tv = drift.shift();
  ASSERT_TRUE(tv.has_value());
  EXPECT_GT(*tv, 0.9) << "fully moved distribution: TV distance near 1";

  // A window matching the baseline reports (near) zero.
  monitor::LatencyDrift same(config);
  for (int i = 0; i < 4; ++i) same.add(histogram_at(sim::microseconds(2), 8));
  const auto tv_same = same.shift();
  ASSERT_TRUE(tv_same.has_value());
  EXPECT_LT(*tv_same, 0.01);
}

// ---------------------------------------------------------------------------
// JSONL tail mode: orchestrator::parse_jsonl + incremental file following.

TEST(JsonlReader, ParsesEmittedRecords) {
  const auto rec = synth_record(3, "gap-go/both", nftape::Medium::kFc);
  const std::string line = orchestrator::to_jsonl(rec);
  const auto parsed = orchestrator::parse_jsonl(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->name, rec.name);
  EXPECT_EQ(parsed->medium, nftape::Medium::kFc);
  EXPECT_EQ(parsed->index, rec.index);
  EXPECT_EQ(parsed->seed, rec.seed);
  EXPECT_EQ(parsed->outcome, rec.outcome);
  if (rec.outcome == orchestrator::RunOutcome::kOk) {
    EXPECT_EQ(parsed->result.counters.injections,
              rec.result.counters.injections);
    EXPECT_EQ(parsed->result.duplicates(), rec.result.duplicates());
    EXPECT_EQ(parsed->result.manifestations, rec.result.manifestations);
  }

  // Default medium is omitted from the line and defaulted by the parser.
  const auto myri = synth_record(0, "gap-go/both");
  const auto parsed_myri =
      orchestrator::parse_jsonl(orchestrator::to_jsonl(myri));
  ASSERT_TRUE(parsed_myri.has_value());
  EXPECT_EQ(parsed_myri->medium, nftape::Medium::kMyrinet);

  // Escaped names survive the round trip.
  orchestrator::RunRecord quoted = synth_record(1, "gap-go/both");
  quoted.name = "weird \"name\"\twith\nescapes";
  const auto parsed_quoted =
      orchestrator::parse_jsonl(orchestrator::to_jsonl(quoted));
  ASSERT_TRUE(parsed_quoted.has_value());
  EXPECT_EQ(parsed_quoted->name, quoted.name);

  // Unknown fields are skipped, nested ones included.
  const auto extra = orchestrator::parse_jsonl(
      R"({"name":"a","outcome":"ok","extra":{"x":[1,null]},"injections":2})");
  ASSERT_TRUE(extra.has_value());
  EXPECT_EQ(extra->result.counters.injections, 2u);
}

TEST(JsonlReader, RejectsMalformedLines) {
  using orchestrator::parse_jsonl;
  EXPECT_FALSE(parse_jsonl("").has_value());
  EXPECT_FALSE(parse_jsonl("not json").has_value());
  EXPECT_FALSE(parse_jsonl("{\"name\":\"a\"").has_value());
  EXPECT_FALSE(
      parse_jsonl("{\"name\":\"a\",\"outcome\":\"ok\"} extra").has_value());
  EXPECT_FALSE(parse_jsonl("{\"outcome\":\"ok\"}").has_value())
      << "a record without a name is useless to the monitor";
  EXPECT_FALSE(
      parse_jsonl("{\"name\":\"a\",\"outcome\":\"ok\",\"injections\":\"abc\"}")
          .has_value())
      << "non-numeric token in a folded u64 field";
  // Lines parse with orchestrator::parse_json, so a bare word, a duplicate
  // key and a raw control character fail even where the reader would
  // skip the field or overwrite it.
  EXPECT_FALSE(
      parse_jsonl(R"({"name":"a","outcome":"ok","sent":nope})").has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok",)"
                           R"("injections":1,"injections":2})")
                   .has_value());
  EXPECT_FALSE(
      parse_jsonl("{\"name\":\"a\tb\",\"outcome\":\"ok\"}").has_value());
  EXPECT_FALSE(
      parse_jsonl(R"({"name":"a","outcome":"ok","injections":1.5})")
          .has_value())
      << "a fraction in a folded u64 field";
}

TEST(JsonlReader, TailerFollowsAGrowingShardFile) {
  const std::string path =
      testing::TempDir() + "hsfi_monitor_tailer_test.jsonl";
  std::remove(path.c_str());

  monitor::JsonlTailer tailer(path);
  std::vector<orchestrator::RunRecord> seen;
  const auto deliver = [&seen](const orchestrator::RunRecord& r) {
    seen.push_back(r);
  };
  EXPECT_EQ(tailer.poll(deliver), 0u) << "missing file: shard not started";

  const std::string line0 = orchestrator::to_jsonl(synth_record(0, "f/both"));
  const std::string line1 = orchestrator::to_jsonl(synth_record(1, "f/both"));
  {
    std::ofstream out(path, std::ios::binary);
    out << line0 << '\n';
    // A torn write: the shard is mid-line when we poll.
    out << line1.substr(0, 25);
  }
  EXPECT_EQ(tailer.poll(deliver), 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].index, 0u);

  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << line1.substr(25) << '\n';
    out << "garbage line\n";
  }
  EXPECT_EQ(tailer.poll(deliver), 1u) << "completed torn line delivers";
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].index, 1u);
  EXPECT_EQ(tailer.malformed(), 1u);
  EXPECT_EQ(tailer.poll(deliver), 0u) << "nothing new";

  std::remove(path.c_str());
}

TEST(JsonlReader, TailerRecoversFromTruncationAndRotation) {
  // Regression: poll() seeked to the saved offset with no check that the
  // file shrank, so after log rotation/truncation the tailer sat at a
  // phantom offset reading nothing forever — and the torn-line carry from
  // the old incarnation was never cleared.
  const std::string path =
      testing::TempDir() + "hsfi_monitor_truncation_test.jsonl";
  std::remove(path.c_str());

  monitor::JsonlTailer tailer(path);
  std::vector<orchestrator::RunRecord> seen;
  const auto deliver = [&seen](const orchestrator::RunRecord& r) {
    seen.push_back(r);
  };

  const std::string line0 = orchestrator::to_jsonl(synth_record(0, "f/both"));
  const std::string line1 = orchestrator::to_jsonl(synth_record(1, "f/both"));
  const std::string line2 = orchestrator::to_jsonl(synth_record(2, "f/both"));
  {
    std::ofstream out(path, std::ios::binary);
    out << line0 << '\n';
    out << line1.substr(0, 20);  // torn carry at the moment of rotation
  }
  EXPECT_EQ(tailer.poll(deliver), 1u);
  EXPECT_EQ(tailer.truncations(), 0u);

  // Rotate: the writer truncates the file and starts a new log. The new
  // first line begins with bytes that would NOT parse if the stale carry
  // were glued in front of it.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << line2 << '\n';
  }
  EXPECT_EQ(tailer.poll(deliver), 1u) << "tailing must resume after rotation";
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].index, 2u);
  EXPECT_EQ(tailer.truncations(), 1u);
  EXPECT_EQ(tailer.malformed(), 0u)
      << "the old file's torn carry must be dropped, not prepended";

  // And appends to the rotated file keep flowing.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << line0 << '\n';
  }
  EXPECT_EQ(tailer.poll(deliver), 1u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2].index, 0u);
  EXPECT_EQ(tailer.truncations(), 1u);

  std::remove(path.c_str());
}

TEST(JsonlReader, ServiceIngestsTailedRecords) {
  // A full out-of-process loop: records -> JSONL -> service, and the
  // counters match the in-process fold (latency histograms are not in the
  // JSONL, so only the counter state can agree).
  std::ostringstream shard;
  monitor::MonitorService direct;
  for (std::size_t i = 0; i < 40; ++i) {
    const auto rec = synth_record(i, "seu-00FF/both");
    shard << orchestrator::to_jsonl(rec) << '\n';
    direct.on_record(rec);
  }
  monitor::MonitorService tailed;
  EXPECT_EQ(tailed.ingest_jsonl(shard.str()), 40u);
  EXPECT_EQ(tailed.records(), 40u);
  EXPECT_EQ(tailed.malformed_lines(), 0u);

  auto a = direct.cell("seu-00FF/both");
  const auto b = tailed.cell("seu-00FF/both");
  EXPECT_GT(a.latency.count(), 0u);
  EXPECT_EQ(b.latency.count(), 0u);
  a.latency.clear();
  EXPECT_EQ(a, b);
  EXPECT_GT(b.injections, 0u);
}

}  // namespace
