// Tests for the parallel campaign orchestration engine: grid expansion,
// seed derivation, JSONL records written and read back, worker-pool
// determinism, and the per-run watchdog (timeout -> retry-once) path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/manifestation.hpp"
#include "myrinet/control.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/jsonl.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "random_record.hpp"
#include "sim/rng.hpp"

namespace hsfi::orchestrator {
namespace {

using myrinet::ControlSymbol;
using sim::microseconds;
using sim::milliseconds;

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.base_seed = 42;
  // Short windows keep each simulated run cheap; map_period dominates the
  // startup settle, so shrink it too.
  sweep.testbed.map_period = milliseconds(20);
  sweep.testbed.map_reply_window = milliseconds(2);
  sweep.testbed.nic_config.rx_processing_time = microseconds(10);
  sweep.testbed.send_stack_time = microseconds(2);
  sweep.base.warmup = milliseconds(5);
  sweep.base.duration = milliseconds(30);
  sweep.base.drain = milliseconds(5);
  sweep.base.workload.udp_interval = microseconds(200);
  sweep.faults = {
      {"baseline", std::nullopt},
      {"gap-go", nftape::control_symbol_corruption(ControlSymbol::kGap,
                                                   ControlSymbol::kGo)},
  };
  sweep.directions = {FaultDirection::kToSwitch};
  sweep.replicates = 2;
  return sweep;
}

std::vector<std::string> sorted_jsonl(const std::vector<RunRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const auto& r : records) lines.push_back(to_jsonl(r));
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(SweepTest, ExpandsFullGridWithDerivedSeeds) {
  SweepSpec sweep;
  sweep.base_seed = 7;
  sweep.faults = {{"a", std::nullopt}, {"b", core::InjectorConfig{}}};
  sweep.directions = {FaultDirection::kToSwitch, FaultDirection::kFromSwitch,
                      FaultDirection::kBoth};
  sweep.intensities = {{"lo", microseconds(500), 1, 64},
                       {"hi", microseconds(50), 4, 128}};
  sweep.replicates = 3;
  const auto runs = expand(sweep);
  ASSERT_EQ(runs.size(), 2u * 3u * 2u * 3u);

  std::set<std::uint64_t> seeds;
  std::set<std::string> names;
  for (const auto& run : runs) {
    EXPECT_EQ(run.seed, sim::derive_seed(7, run.index));
    EXPECT_EQ(run.campaign.seed, run.seed);
    EXPECT_EQ(run.testbed.seed, run.seed);
    EXPECT_GT(run.startup_settle, 0);
    seeds.insert(run.seed);
    names.insert(run.campaign.name);
  }
  EXPECT_EQ(seeds.size(), runs.size()) << "seeds must be unique";
  EXPECT_EQ(names.size(), runs.size()) << "names must be unique";
  EXPECT_EQ(runs[0].campaign.name, "a/to-switch/lo/r0");

  // Direction routing: "a" is the baseline (no fault installed at all).
  for (const auto& run : runs) {
    const bool is_fault = run.campaign.name[0] == 'b';
    const bool to = run.campaign.name.find("/to-switch/") != std::string::npos ||
                    run.campaign.name.find("/both/") != std::string::npos;
    const bool from =
        run.campaign.name.find("/from-switch/") != std::string::npos ||
        run.campaign.name.find("/both/") != std::string::npos;
    EXPECT_EQ(run.campaign.fault_to_switch.has_value(), is_fault && to);
    EXPECT_EQ(run.campaign.fault_from_switch.has_value(), is_fault && from);
  }
}

TEST(SweepTest, ExpansionIsAPureFunctionOfTheSpec) {
  const auto a = expand(small_sweep());
  const auto b = expand(small_sweep());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].campaign.name, b[i].campaign.name);
  }
}

TEST(JsonlTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\n\t\x01y"), "x\\n\\t\\u0001y");
}

TEST(JsonlTest, NonFiniteNumbersSerializeAsNull) {
  // printf would emit bare `nan`/`inf`, which no JSON parser accepts; the
  // writer must degrade to null instead of corrupting the whole line.
  JsonObject o;
  o.add_fixed("a", std::numeric_limits<double>::quiet_NaN(), 4);
  o.add_fixed("b", std::numeric_limits<double>::infinity(), 4);
  o.add_fixed("c", -std::numeric_limits<double>::infinity(), 4);
  o.add_fixed("d", 1.25, 2);
  EXPECT_EQ(o.str(), "{\"a\":null,\"b\":null,\"c\":null,\"d\":1.25}");
}

TEST(JsonlTest, HugeFixedNumbersAreWrittenWhole) {
  JsonObject o;
  o.add_fixed("w", 1e300, 3);
  const std::string line = o.str();
  EXPECT_EQ(line.size(), std::string("{\"w\":}").size() + 301 + 4) << line;
  EXPECT_EQ(line.substr(line.size() - 5), ".000}");
}

TEST(JsonlTest, DuplicateDeliveriesAreReportedNotClamped) {
  RunRecord rec;
  rec.outcome = RunOutcome::kOk;
  rec.result.counters.messages_sent = 10;
  // Duplication (e.g. a looped route).
  rec.result.counters.messages_received = 13;
  rec.result.window = milliseconds(40);
  EXPECT_EQ(rec.result.duplicates(), 3u);
  EXPECT_EQ(rec.result.loss_rate(), 0.0);
  const auto line = to_jsonl(rec);
  EXPECT_NE(line.find("\"duplicates\":3"), std::string::npos)
      << "a clamped loss figure must not hide duplication: " << line;
}

TEST(JsonlTest, RecordHasStableFieldOrderAndOptionalTiming) {
  RunRecord rec;
  rec.index = 3;
  rec.name = "gap-go/both/base/r0";
  rec.seed = 99;
  rec.outcome = RunOutcome::kOk;
  rec.attempts = 1;
  rec.result.counters.messages_sent = 10;
  rec.result.counters.messages_received = 9;
  rec.result.window = milliseconds(40);
  rec.wall_ms = 12.5;
  const auto line = to_jsonl(rec);
  EXPECT_EQ(line.find("{\"run\":3,\"name\":\"gap-go/both/base/r0\",\"seed\":99,"
                      "\"outcome\":\"ok\",\"attempts\":1,\"timeouts\":0,"
                      "\"sent\":10,\"received\":9,\"loss_pct\":10.0000"),
            0u);
  EXPECT_EQ(line.find("wall_ms"), std::string::npos)
      << "timing must be opt-in; it is the one nondeterministic field";
  const auto timed = to_jsonl(rec, /*include_timing=*/true);
  EXPECT_NE(timed.find("\"wall_ms\":12.500"), std::string::npos);
  // The manifestation breakdown rides at the tail of the ok-record block,
  // after the kernel event count, one field per class plus duplicates and
  // secondary effects.
  EXPECT_NE(line.find("\"long_timeouts\":0,\"duplicates\":0,\"events\":0,"
                      "\"m_masked\":0"),
            std::string::npos)
      << line;
  for (const auto m : analysis::all_manifestations()) {
    EXPECT_NE(line.find("\"" + std::string(analysis::jsonl_key(m)) + "\":"),
              std::string::npos)
        << analysis::jsonl_key(m);
  }
  EXPECT_NE(line.find("\"secondary_effects\":0}"), std::string::npos) << line;
}

// The record schema, read back: parse_jsonl walks the field list to_jsonl
// writes, so every record re-emits byte for byte.
TEST(JsonlTest, ParseJsonlRoundTripsRandomRecords) {
  std::mt19937_64 rng(20260418);
  for (int i = 0; i < 4000; ++i) {
    const RunRecord rec = testing_support::random_record(rng);
    const bool timing = rng() % 2 == 0;
    const std::string line = to_jsonl(rec, timing);
    const auto parsed = parse_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(to_jsonl(*parsed, timing), line);

    // Every integer and text field the line carries reads back equal.
    EXPECT_EQ(parsed->index, rec.index);
    EXPECT_EQ(parsed->name, rec.name);
    EXPECT_EQ(parsed->seed, rec.seed);
    EXPECT_EQ(parsed->medium, rec.medium);
    EXPECT_EQ(parsed->strategy, rec.strategy);
    EXPECT_EQ(parsed->round, rec.strategy.empty() ? 0u : rec.round);
    EXPECT_EQ(parsed->scenario, rec.scenario);
    EXPECT_EQ(parsed->outcome, rec.outcome);
    EXPECT_EQ(parsed->attempts, rec.attempts);
    EXPECT_EQ(parsed->timeouts, rec.timeouts);
    EXPECT_EQ(parsed->error, rec.error);
    EXPECT_EQ(parsed->wall_ms, timing ? rec.wall_ms : 0.0);
    if (rec.outcome != RunOutcome::kOk) continue;
    const auto& got = parsed->result;
    nftape::FabricCounters carried = rec.result.counters;
    if (rec.medium != nftape::Medium::kFc) {
      carried.credit_stalls = 0;
      carried.sequences_aborted = 0;
    }
    if (rec.scenario.empty()) carried.scenario_steps = 0;
    EXPECT_TRUE(got.counters == carried) << line;
    EXPECT_EQ(got.window, rec.result.window);
    EXPECT_EQ(got.events_executed, rec.result.events_executed);
    EXPECT_EQ(got.manifestations, rec.result.manifestations);
    EXPECT_EQ(got.secondary_effects, rec.result.secondary_effects);
    EXPECT_EQ(got.manifestation_latency.count(), 0u);
  }
}

TEST(JsonlTest, ParseJsonlRefusesWhatNoEmitterWrites) {
  EXPECT_TRUE(parse_jsonl(R"({"name":"a","outcome":"ok"})").has_value());
  // Required fields.
  EXPECT_FALSE(parse_jsonl(R"({"outcome":"ok"})").has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"","outcome":"ok"})").has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a"})").has_value());
  // Names of values that do not exist.
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"maybe"})").has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","medium":"infiniband",)"
                           R"("outcome":"ok"})")
                   .has_value());
  EXPECT_TRUE(parse_jsonl(R"({"name":"a","medium":"fc","outcome":"ok"})")
                  .has_value());
  // Ranges: round is 32 bits, attempts and timeouts an int.
  EXPECT_TRUE(parse_jsonl(R"({"name":"a","round":4294967295,)"
                          R"("outcome":"ok"})")
                  .has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","round":4294967296,)"
                           R"("outcome":"ok"})")
                   .has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","round":18446744073709551615,)"
                           R"("outcome":"ok"})")
                   .has_value());
  for (const char* key : {"attempts", "timeouts"}) {
    const std::string head = std::string(R"({"name":"a","outcome":"ok",")") +
                             key + "\":";
    EXPECT_TRUE(parse_jsonl(head + "2147483647}").has_value()) << key;
    EXPECT_FALSE(parse_jsonl(head + "2147483648}").has_value()) << key;
  }
  // The window reads into picoseconds: non-negative, at most 10^9 ms.
  EXPECT_TRUE(parse_jsonl(R"({"name":"a","outcome":"ok",)"
                          R"("window_ms":1000000000.000})")
                  .has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok",)"
                           R"("window_ms":1000000000.001})")
                   .has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok","window_ms":-1.0})")
                   .has_value());
  // Numbers past a double, which would be written back as null.
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok","wall_ms":1e400})")
                   .has_value());
  EXPECT_FALSE(
      parse_jsonl(R"({"name":"a","outcome":"ok","window_ms":-1e400})")
          .has_value());
  // Text or a boolean where a fixed-point number belongs.
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok","window_ms":"1"})")
                   .has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok","loss_pct":true})")
                   .has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok","wall_ms":null})")
                   .has_value());
  // A number where text belongs.
  EXPECT_FALSE(parse_jsonl(R"({"name":7,"outcome":"ok"})").has_value());
  EXPECT_FALSE(parse_jsonl(R"({"name":"a","outcome":"ok","error":1})")
                   .has_value());

  // Every integer field of a full record refuses a sign, a fraction and a
  // string.
  RunRecord full;
  full.name = "fc:gap-go/both/udp-us=12/r0";
  full.medium = nftape::Medium::kFc;
  full.strategy = "coverage";
  full.round = 2;
  full.scenario = "flow-liar";
  full.outcome = RunOutcome::kOk;
  full.attempts = 1;
  full.error = "none";
  full.result.counters.messages_sent = 10;
  const std::string line = to_jsonl(full, /*include_timing=*/true);
  ASSERT_TRUE(parse_jsonl(line).has_value()) << line;
  const auto doc = parse_json(line);
  ASSERT_TRUE(doc.has_value());
  std::size_t integer_fields = 0;
  for (const auto& [key, value] : doc->fields) {
    std::uint64_t n = 0;
    if (!value.as_u64(n)) continue;
    ++integer_fields;
    const std::string field = "\"" + key + "\":" + value.text;
    const auto at = line.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    for (const char* bad : {"-1", "1.5", "\"7\""}) {
      std::string mutated = line;
      mutated.replace(at, field.size(), "\"" + key + "\":" + bad);
      EXPECT_FALSE(parse_jsonl(mutated).has_value()) << mutated;
    }
  }
  EXPECT_GE(integer_fields, 32u) << line;
}

// The acceptance property: the same sweep produces byte-identical sorted
// JSONL no matter how many workers execute it (seeds derive from the run
// index, every run owns a private testbed, wall time is excluded).
TEST(RunnerTest, JsonlIsByteIdenticalAcrossWorkerCounts) {
  const auto runs = expand(small_sweep());
  ASSERT_EQ(runs.size(), 4u);

  RunnerConfig one;
  one.workers = 1;
  const auto serial = Runner(one).run_all(runs);

  RunnerConfig many;
  many.workers = 8;
  const auto parallel = Runner(many).run_all(runs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& r : serial) {
    EXPECT_EQ(r.outcome, RunOutcome::kOk) << r.name << ": " << r.error;
  }
  EXPECT_EQ(sorted_jsonl(serial), sorted_jsonl(parallel));
  // And the records really did measure something.
  EXPECT_GT(serial[0].result.counters.messages_sent, 0u);
}

TEST(RunnerTest, FaultySweepRunsSeeCampaignEffects) {
  // Sanity that the pool runs real campaigns: the gap-go runs of the small
  // sweep must inject and lose packets, the baselines must not.
  RunnerConfig rc;
  rc.workers = 2;
  const auto records = Runner(rc).run_all(expand(small_sweep()));
  for (const auto& r : records) {
    ASSERT_EQ(r.outcome, RunOutcome::kOk) << r.error;
    if (r.name.rfind("baseline", 0) == 0) {
      EXPECT_EQ(r.result.counters.injections, 0u) << r.name;
    } else {
      EXPECT_GT(r.result.counters.injections, 0u) << r.name;
      EXPECT_GT(r.result.loss_rate(), 0.0) << r.name;
    }
    // The accounting invariant, via the real worker-pool path: every firing
    // lands in exactly one manifestation class.
    EXPECT_EQ(r.result.manifestations.total(), r.result.counters.injections)
        << r.name;
  }
}

TEST(RunnerTest, WatchdogCancelsHungRunAndRetriesExactlyOnce) {
  auto sweep = small_sweep();
  sweep.faults = {{"baseline", std::nullopt}};
  sweep.replicates = 3;
  const auto runs = expand(sweep);
  ASSERT_EQ(runs.size(), 3u);

  // Run 1 hangs on its first attempt: it spins (in tiny real sleeps) until
  // the watchdog's wall deadline cancels it. The retry behaves.
  std::atomic<int> hung_attempts{0};
  RunnerConfig rc;
  rc.workers = 2;
  rc.wall_limit = std::chrono::milliseconds(80);
  rc.executor = [&hung_attempts](const RunSpec& run,
                                 const nftape::RunControl& control) {
    if (run.index == 1 && hung_attempts.fetch_add(1) == 0) {
      while (!control.should_cancel(0)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw nftape::RunCancelled("hung");
    }
    nftape::CampaignResult r;
    r.name = run.campaign.name;
    r.counters.messages_sent = r.counters.messages_received = 100 + run.index;
    return r;
  };
  const auto records = Runner(rc).run_all(runs);

  EXPECT_EQ(records[1].outcome, RunOutcome::kOk) << "retry must succeed";
  EXPECT_EQ(records[1].attempts, 2) << "exactly one retry";
  EXPECT_EQ(records[1].timeouts, 1) << "first attempt marked timed out";
  EXPECT_EQ(records[0].attempts, 1);
  EXPECT_EQ(records[2].attempts, 1);
  EXPECT_EQ(hung_attempts.load(), 2);
}

TEST(RunnerTest, PermanentlyHungRunEndsTimedOutAfterOneRetry) {
  auto sweep = small_sweep();
  sweep.faults = {{"baseline", std::nullopt}};
  sweep.replicates = 1;
  RunnerConfig rc;
  rc.workers = 1;
  rc.wall_limit = std::chrono::milliseconds(40);
  rc.executor = [](const RunSpec&, const nftape::RunControl& control)
      -> nftape::CampaignResult {
    while (!control.should_cancel(0)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw nftape::RunCancelled("hung forever");
  };
  const auto records = Runner(rc).run_all(expand(sweep));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RunOutcome::kTimedOut);
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_EQ(records[0].timeouts, 2);
  const auto line = to_jsonl(records[0]);
  EXPECT_NE(line.find("\"outcome\":\"timed_out\""), std::string::npos);
  EXPECT_EQ(line.find("\"sent\""), std::string::npos)
      << "no counters for a run that never finished";
}

TEST(RunnerTest, SimulatedTimeCapCancelsARealCampaign) {
  // Exercise the real chunked-settle path in CampaignRunner: a cap far
  // below the run's span must cancel during simulation, not after.
  auto sweep = small_sweep();
  sweep.faults = {{"baseline", std::nullopt}};
  sweep.replicates = 1;
  RunnerConfig rc;
  rc.workers = 1;
  rc.sim_limit = milliseconds(5);
  rc.poll_interval = milliseconds(1);
  const auto records = Runner(rc).run_all(expand(sweep));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RunOutcome::kTimedOut);
  EXPECT_EQ(records[0].attempts, 2);
}

TEST(RunnerTest, WatchdogBudgetSpansSettleAndCampaignPhases) {
  // Regression: default_execute accumulated `elapsed` through the startup
  // settle, then CampaignRunner::run restarted its own accumulator at 0 —
  // so a run straddling the phase boundary got a fresh sim-time budget per
  // phase and could consume ~2x sim_limit before the watchdog fired. Here
  // each phase alone fits under the cap (settle 60 ms, campaign ~91 ms,
  // cap 100 ms) but their sum does not: with one threaded accumulator the
  // run must time out; with per-phase budgets it would complete.
  auto sweep = small_sweep();
  sweep.faults = {{"baseline", std::nullopt}};
  sweep.replicates = 1;
  sweep.startup_settle = milliseconds(60);
  sweep.base.warmup = milliseconds(2);
  sweep.base.duration = milliseconds(5);
  sweep.base.drain = milliseconds(2);
  RunnerConfig rc;
  rc.workers = 1;
  rc.sim_limit = milliseconds(100);
  rc.poll_interval = milliseconds(5);
  const auto records = Runner(rc).run_all(expand(sweep));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RunOutcome::kTimedOut)
      << "the settle phase must draw down the campaign phase's budget";
  EXPECT_EQ(records[0].timeouts, records[0].attempts);
}

TEST(RunnerTest, CampaignRunnerHonorsPreCampaignElapsed) {
  // The seam of the fix in isolation: CampaignRunner::run seeded with
  // settle-phase elapsed just below the cap must cancel within the first
  // poll chunks of the campaign instead of granting a fresh budget.
  const auto sweep = small_sweep();
  auto bed_config = sweep.testbed;
  bed_config.seed = 1;
  nftape::MyrinetFabric fabric(bed_config);
  fabric.start();
  nftape::CampaignRunner campaign(fabric);
  nftape::RunControl control;
  control.poll_interval = milliseconds(5);
  control.should_cancel = [](sim::Duration elapsed) {
    return elapsed >= milliseconds(100);
  };
  auto spec = sweep.base;
  spec.seed = 1;
  EXPECT_THROW(campaign.run(spec, &control, /*elapsed_before=*/milliseconds(95)),
               nftape::RunCancelled);
}

TEST(RunnerTest, ErrorOutcomeIsRetriedAndRecorded) {
  auto sweep = small_sweep();
  sweep.faults = {{"baseline", std::nullopt}};
  sweep.replicates = 1;
  RunnerConfig rc;
  rc.workers = 1;
  rc.executor = [](const RunSpec&, const nftape::RunControl&)
      -> nftape::CampaignResult {
    throw std::runtime_error("boom");
  };
  const auto records = Runner(rc).run_all(expand(sweep));
  EXPECT_EQ(records[0].outcome, RunOutcome::kError);
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_EQ(records[0].error, "boom");
  EXPECT_NE(to_jsonl(records[0]).find("\"error\":\"boom\""),
            std::string::npos);
}

TEST(RunnerTest, ProgressAndRecordCallbacksAccount) {
  const auto runs = expand(small_sweep());
  RunnerConfig rc;
  rc.workers = 3;
  struct CountingSink final : RecordSink {
    std::size_t calls = 0;
    void on_record(const RunRecord&) override { ++calls; }
  };
  CountingSink counting;
  Progress last;
  rc.sinks = {&counting};
  rc.on_progress = [&last](const Progress& p) {
    EXPECT_LE(p.completed + p.failed + p.in_flight, p.total);
    last = p;
  };
  const auto records = Runner(rc).run_all(runs);
  EXPECT_EQ(counting.calls, runs.size());
  EXPECT_EQ(last.completed + last.failed, runs.size());
  EXPECT_EQ(last.in_flight, 0u);
  EXPECT_EQ(records.size(), runs.size());
}

// Early-cancel: a declined run never starts, yet its record carries the
// run's identity, says why it was skipped, writes no result fields, and
// reaches every consumer like any other record.
TEST(RunnerTest, SkippedRunsAreStampedAndReachEverySink) {
  auto runs = expand(small_sweep());
  ASSERT_EQ(runs.size(), 4u);
  for (auto& run : runs) {
    run.round = 3;
    run.strategy = "coverage";
    run.campaign.medium = nftape::Medium::kFc;
  }
  struct CollectingSink final : RecordSink {
    std::vector<RunRecord> seen;
    void on_record(const RunRecord& r) override { seen.push_back(r); }
  };
  CollectingSink first;
  CollectingSink second;
  Progress last;
  RunnerConfig rc;
  rc.workers = 2;
  rc.executor = [](const RunSpec&, const nftape::RunControl&) {
    nftape::CampaignResult r;
    r.counters.messages_sent = r.counters.messages_received = 5;
    return r;
  };
  rc.should_skip = [](const RunSpec& run) { return run.index % 2 == 1; };
  rc.on_progress = [&last](const Progress& p) { last = p; };
  rc.sinks = {&first, &second};
  const auto records = Runner(rc).run_all(runs);
  ASSERT_EQ(records.size(), runs.size());

  const auto delivered = [](const std::vector<RunRecord>& seen,
                            std::size_t index) {
    return std::count_if(seen.begin(), seen.end(),
                         [index](const RunRecord& r) {
                           return r.index == index &&
                                  r.outcome == RunOutcome::kSkipped;
                         });
  };
  std::size_t declined = 0;
  for (const auto& run : runs) {
    const RunRecord& rec = records[run.index];
    if (run.index % 2 == 0) {
      EXPECT_EQ(rec.outcome, RunOutcome::kOk) << rec.name;
      continue;
    }
    ++declined;
    EXPECT_EQ(rec.outcome, RunOutcome::kSkipped);
    EXPECT_EQ(rec.attempts, 0);
    EXPECT_EQ(rec.name, run.campaign.name);
    EXPECT_EQ(rec.seed, run.seed);
    EXPECT_EQ(rec.medium, nftape::Medium::kFc);
    EXPECT_EQ(rec.round, 3u);
    EXPECT_EQ(rec.strategy, "coverage");
    EXPECT_EQ(rec.error, "skipped: cell resolved by early-cancel");
    const std::string line = to_jsonl(rec);
    EXPECT_NE(line.find("\"outcome\":\"skipped\""), std::string::npos);
    EXPECT_NE(
        line.find("\"error\":\"skipped: cell resolved by early-cancel\""),
        std::string::npos)
        << line;
    for (const char* key : {"\"sent\"", "\"received\"", "\"loss_pct\"",
                            "\"injections\"", "\"events\"",
                            "\"secondary_effects\"", "\"fc_credit_stalls\""}) {
      EXPECT_EQ(line.find(key), std::string::npos) << key << " in " << line;
    }
    EXPECT_EQ(delivered(first.seen, run.index), 1);
    EXPECT_EQ(delivered(second.seen, run.index), 1);
  }
  EXPECT_EQ(declined, 2u);
  EXPECT_EQ(last.skipped, declined);
  EXPECT_EQ(first.seen.size(), runs.size());
  EXPECT_EQ(second.seen.size(), runs.size());
}

TEST(SeedTest, SplitmixDerivationIsStableAndDispersed) {
  EXPECT_EQ(sim::splitmix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sim::derive_seed(1, 0), sim::derive_seed(1, 0));
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(1, 1));
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(2, 0));
  // Nearby indices must not produce nearby seeds (the reason splitmix is
  // used instead of base + index).
  std::set<std::uint64_t> high_bytes;
  for (std::uint64_t i = 0; i < 64; ++i) {
    high_bytes.insert(sim::derive_seed(1, i) >> 56);
  }
  EXPECT_GT(high_bytes.size(), 32u);
}

}  // namespace
}  // namespace hsfi::orchestrator
