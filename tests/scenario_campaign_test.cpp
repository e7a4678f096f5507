// Scenario layer through the full campaign stack.
//
// Drives examples/specs/mini_scenario.json — one registry scenario
// (flow-liar on Myrinet) and one inline custom program (an R_RDY storm on
// FC), each stacked on a symbol-level fault — and pins the same contract
// the plain campaign goldens pin:
//
//  1. JSONL and per-run kernel event digests are byte-identical for
//     --workers 1 vs 8, and match tests/golden/scenario_mini_campaign.digest
//     (regenerate with HSFI_UPDATE_GOLDEN=1 when an event-order change is
//     deliberate).
//  2. Scenario firings are injections: the 8-class manifestation breakdown
//     sums to the injection count exactly even with a scenario armed on
//     top of a wire fault.
//  3. Records carry scenario provenance ("scenario" + "steps") only when a
//     scenario ran — a no-scenario record's bytes are unchanged.
//  4. Snapshot/fork execution produces the same bytes as cold starts with
//     scenarios armed (the property --emit-repro's forked probes rest on).
//
// On top of that, the end-to-end minimization acceptance: a lying
// flow-control scenario manifests through the full stack, the Minimizer
// shrinks it to <= half its steps on forked snapshots in fewer runs than
// naive one-at-a-time removal, the minimal program preserves the class
// cold, and the emitted trace round-trips through the repro JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/medium.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/repro.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"
#include "scenario/minimizer.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace hsfi;

/// FNV-1a, 64-bit, fed fixed-width little-endian words (same shape as the
/// other golden-trace digests so the artifacts are comparable).
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

std::string spec_path() {
  return std::string(HSFI_SPEC_DIR) + "/mini_scenario.json";
}

std::string golden_path() {
  return std::string(HSFI_GOLDEN_DIR) + "/scenario_mini_campaign.digest";
}

struct MiniCampaign {
  std::string jsonl;                 ///< index-ordered, no timing fields
  std::vector<std::string> digests;  ///< per-run event-sequence digests
};

/// Runs the golden spec on `workers` threads with the event-hash observer
/// attached, asserting the scenario/injection accounting per run.
MiniCampaign run_mini(std::size_t workers) {
  const auto runs =
      orchestrator::expand_campaign(orchestrator::load_campaign_file(spec_path()));
  MiniCampaign out;
  out.digests.resize(runs.size());

  orchestrator::RunnerConfig rc;
  rc.workers = workers;
  rc.executor = [&out](const orchestrator::RunSpec& run,
                       const nftape::RunControl& control) {
    Fnv1a digest;
    const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
    fabric->sim().set_event_observer(
        [&digest](sim::SimTime when, std::uint64_t exec_seq,
                  std::uint64_t schedule_seq) {
          digest.i64(when);
          digest.u64(exec_seq);
          digest.u64(schedule_seq);
        });
    fabric->start();
    fabric->settle(run.startup_settle);
    nftape::CampaignRunner runner(*fabric);
    auto result = runner.run(run.campaign, &control);
    EXPECT_EQ(result.manifestations.total(), result.counters.injections)
        << "run " << run.index
        << ": breakdown must reconcile with scenario firings included";
    EXPECT_GT(result.counters.scenario_steps, 0u)
        << "run " << run.index << ": the armed scenario must fire in-window";
    out.digests[run.index] = digest.hex();  // disjoint slot per run
    return result;
  };

  const auto records = orchestrator::Runner(rc).run_all(runs);
  std::ostringstream lines;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, orchestrator::RunOutcome::kOk)
        << "run " << r.index << ": " << r.error;
    lines << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
  }
  out.jsonl = lines.str();
  return out;
}

std::string combined_digest(const MiniCampaign& c) {
  Fnv1a all;
  for (const auto& d : c.digests) {
    for (const char ch : d) all.u64(static_cast<std::uint8_t>(ch));
  }
  return all.hex();
}

TEST(ScenarioCampaign, WorkerCountDoesNotChangeResults) {
  const auto serial = run_mini(1);
  const auto pooled = run_mini(8);
  EXPECT_EQ(serial.jsonl, pooled.jsonl)
      << "JSONL must be byte-identical for --workers 1 vs 8";
  EXPECT_EQ(serial.digests, pooled.digests)
      << "scenario steps must fire at the same kernel-event positions "
         "regardless of worker count";
  EXPECT_FALSE(serial.jsonl.empty());
}

TEST(ScenarioCampaign, MatchesCommittedDigest) {
  const auto campaign = run_mini(1);
  const std::string digest = combined_digest(campaign);

  if (const char* update = std::getenv("HSFI_UPDATE_GOLDEN");
      update != nullptr && *update) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << digest << '\n';
    GTEST_SKIP() << "updated " << golden_path() << " to " << digest;
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in) << "missing " << golden_path()
                  << " (generate with HSFI_UPDATE_GOLDEN=1)";
  std::string expected;
  in >> expected;
  EXPECT_EQ(digest, expected)
      << "scenario-armed event delivery order changed; if intended, "
      << "regenerate " << golden_path() << " with HSFI_UPDATE_GOLDEN=1";
}

TEST(ScenarioCampaign, JsonlCarriesScenarioProvenance) {
  const auto campaign = run_mini(1);
  std::istringstream lines(campaign.jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    if (line.find("\"name\":\"myri:") != std::string::npos) {
      EXPECT_NE(line.find("\"scenario\":\"flow-liar\""), std::string::npos)
          << line;
      // All 8 flow-liar steps fall inside the 6 ms window.
      EXPECT_NE(line.find("\"steps\":8"), std::string::npos) << line;
    } else {
      EXPECT_NE(line.find("\"scenario\":\"custom-storm\""), std::string::npos)
          << line;
      EXPECT_NE(line.find("\"steps\":"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(n, 4u);  // 2 targets x 1 fault x 1 direction x 2 replicates
}

/// The conditional-emission rule that keeps every pre-existing golden
/// byte-identical: no scenario, no "scenario"/"steps" keys at all.
TEST(ScenarioCampaign, NoScenarioRecordOmitsProvenanceKeys) {
  orchestrator::RunRecord rec;
  rec.outcome = orchestrator::RunOutcome::kOk;
  const auto line = orchestrator::to_jsonl(rec, /*include_timing=*/false);
  EXPECT_EQ(line.find("\"scenario\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"steps\""), std::string::npos) << line;
}

TEST(ScenarioCampaign, SnapshotForkMatchesColdStarts) {
  const auto runs =
      orchestrator::expand_campaign(orchestrator::load_campaign_file(spec_path()));
  const auto jsonl_with = [&runs](bool snapshots) {
    orchestrator::RunnerConfig rc;
    rc.workers = 1;
    rc.snapshots = snapshots;
    const auto records = orchestrator::Runner(rc).run_all(runs);
    std::ostringstream lines;
    for (const auto& r : records) {
      EXPECT_EQ(r.outcome, orchestrator::RunOutcome::kOk) << r.error;
      lines << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
    }
    return lines.str();
  };
  const auto cold = jsonl_with(false);
  const auto forked = jsonl_with(true);
  EXPECT_EQ(cold, forked)
      << "scenario arming must survive restore_snapshot unchanged";
  EXPECT_FALSE(cold.empty());
}

// ---------------------------------------------------------------------------
// End-to-end minimization (the --emit-repro path, in-process)

/// Baseline-fault sweep with flow-liar armed: the scenario alone must
/// produce the manifestation the minimizer then preserves.
orchestrator::SweepSpec flow_liar_sweep() {
  orchestrator::SweepSpec sweep;
  sweep.name = "repro";
  sweep.base_seed = 5;
  sweep.replicates = 1;
  sweep.directions = {orchestrator::FaultDirection::kBoth};
  sweep.faults.push_back({"baseline", std::nullopt, ""});
  sweep.testbed.map_period = sim::milliseconds(40);
  sweep.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  sweep.testbed.send_stack_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(2);
  sweep.base.duration = sim::milliseconds(10);
  sweep.base.drain = sim::milliseconds(2);
  sweep.base.workload.udp_interval = sim::microseconds(12);
  sweep.base.workload.burst_size = 4;
  sweep.base.workload.jitter = 0.5;
  sweep.base.workload.payload_size = 256;
  return sweep;
}

TEST(ScenarioMinimization, FlowLiarShrinksOnForkedSnapshots) {
  auto sweep = flow_liar_sweep();
  const auto scen = scenario::find_scenario("flow-liar");
  ASSERT_TRUE(scen.has_value());
  ASSERT_GE(scen->steps.size(), 6u);
  sweep.base.scenario = *scen;

  const auto runs = orchestrator::expand(sweep);
  ASSERT_EQ(runs.size(), 1u);
  const auto& run = runs.front();

  orchestrator::RunnerConfig rc;
  rc.workers = 1;
  const auto reference = orchestrator::Runner(rc).run_all(runs).front();
  ASSERT_EQ(reference.outcome, orchestrator::RunOutcome::kOk)
      << reference.error;
  EXPECT_EQ(reference.result.counters.scenario_steps, scen->steps.size());
  EXPECT_EQ(reference.result.manifestations.total(),
            reference.result.counters.injections);
  const std::string expect = orchestrator::dominant_class(reference.result);
  ASSERT_FALSE(expect.empty()) << "flow-liar must manifest through the "
                                  "full stack for the acceptance to mean "
                                  "anything";

  // The minimizer probes run on forks of one settled snapshot — the same
  // reuse --emit-repro does — so each candidate costs only the window.
  const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->start();
  fabric->settle(run.startup_settle);
  const auto snap = fabric->capture_snapshot();
  ASSERT_NE(snap, nullptr);
  nftape::CampaignRunner probes(*fabric);
  const scenario::Minimizer::Execute execute =
      [&](const scenario::ScenarioSpec& candidate) {
        fabric->restore_snapshot(*snap);
        nftape::CampaignSpec spec = run.campaign;
        spec.scenario = candidate;
        return orchestrator::dominant_class(probes.run(spec));
      };
  const auto minimized =
      scenario::Minimizer().minimize(*run.campaign.scenario, expect, execute);
  EXPECT_TRUE(minimized.reproduced);
  EXPECT_TRUE(minimized.irreducible);
  EXPECT_LE(minimized.minimal.steps.size(), scen->steps.size() / 2)
      << "acceptance: at most half the original interventions survive";
  EXPECT_LT(minimized.runs, scen->steps.size() + 1)
      << "acceptance: strictly fewer executions than naive one-at-a-time "
         "removal (initial check + one probe per step)";

  // The minimal program, re-run cold through the production Runner (no
  // snapshot, fresh fabric), preserves the manifestation class.
  auto min_sweep = sweep;
  min_sweep.base.scenario = minimized.minimal;
  const auto verify =
      orchestrator::Runner(rc).run_all(orchestrator::expand(min_sweep)).front();
  ASSERT_EQ(verify.outcome, orchestrator::RunOutcome::kOk) << verify.error;
  EXPECT_EQ(orchestrator::dominant_class(verify.result), expect);
  EXPECT_EQ(verify.result.counters.scenario_steps,
            minimized.minimal.steps.size());

  // A trace built from the verification run replays byte-identically when
  // the sweep is rebuilt from the parsed trace — the --replay contract.
  orchestrator::ReproTrace trace;
  trace.name = verify.name;
  trace.medium = run.campaign.medium;
  trace.seed = min_sweep.base_seed;
  trace.fault = "";
  trace.direction = orchestrator::FaultDirection::kBoth;
  trace.warmup = min_sweep.base.warmup;
  trace.duration = min_sweep.base.duration;
  trace.drain = min_sweep.base.drain;
  trace.udp_interval = min_sweep.base.workload.udp_interval;
  trace.payload_size = min_sweep.base.workload.payload_size;
  trace.burst_size = min_sweep.base.workload.burst_size;
  trace.jitter = min_sweep.base.workload.jitter;
  trace.scenario = minimized.minimal;
  trace.expect = expect;
  trace.jsonl = orchestrator::to_jsonl(verify, /*include_timing=*/false);

  const auto parsed = orchestrator::parse_repro_trace(
      orchestrator::to_json(trace));
  EXPECT_EQ(parsed.scenario, trace.scenario);
  EXPECT_EQ(parsed.seed, trace.seed);
  EXPECT_EQ(parsed.expect, trace.expect);
  EXPECT_EQ(parsed.jsonl, trace.jsonl);

  auto replay_sweep = flow_liar_sweep();  // static config, then trace fields
  replay_sweep.base.warmup = parsed.warmup;
  replay_sweep.base.duration = parsed.duration;
  replay_sweep.base.drain = parsed.drain;
  replay_sweep.base.workload.udp_interval = parsed.udp_interval;
  replay_sweep.base.workload.payload_size = parsed.payload_size;
  replay_sweep.base.workload.burst_size = parsed.burst_size;
  replay_sweep.base.workload.jitter = parsed.jitter;
  replay_sweep.base.scenario = parsed.scenario;
  replay_sweep.base_seed = parsed.seed;
  replay_sweep.directions = {parsed.direction};
  const auto replayed =
      orchestrator::Runner(rc).run_all(orchestrator::expand(replay_sweep))
          .front();
  ASSERT_EQ(replayed.outcome, orchestrator::RunOutcome::kOk)
      << replayed.error;
  EXPECT_EQ(orchestrator::to_jsonl(replayed, /*include_timing=*/false),
            parsed.jsonl)
      << "replay must reproduce the stored record byte-for-byte";
}

/// Pure round-trip of the trace format: emit -> parse preserves every
/// field, including fixed-decimal timing and nested steps.
TEST(ReproTrace, JsonRoundTripPreservesEveryField) {
  orchestrator::ReproTrace trace;
  trace.name = "gap-go/both/base/r0";
  trace.medium = nftape::Medium::kFc;
  trace.seed = 42;
  trace.fault = "fill-flip";
  trace.direction = orchestrator::FaultDirection::kFromSwitch;
  trace.warmup = sim::milliseconds(2);
  trace.duration = sim::nanoseconds(12'345'678);
  trace.drain = sim::milliseconds(2);
  trace.udp_interval = sim::nanoseconds(12'500);
  trace.payload_size = 256;
  trace.burst_size = 4;
  trace.jitter = 0.5;
  trace.scenario.name = "custom-storm";
  scenario::Step flood;
  flood.kind = scenario::StepKind::kRrdyFlood;
  flood.at = sim::nanoseconds(1'500'000);
  flood.node = 0;
  flood.count = 24;
  scenario::Step dup;
  dup.kind = scenario::StepKind::kDupSequence;
  dup.at = sim::milliseconds(3);
  dup.node = 1;
  dup.count = 1;
  trace.scenario.steps = {flood, dup};
  trace.expect = "dropped_other";
  trace.jsonl = "{\"index\":0,\"name\":\"x\"}";

  const auto text = orchestrator::to_json(trace);
  const auto parsed = orchestrator::parse_repro_trace(text);
  EXPECT_EQ(parsed.name, trace.name);
  EXPECT_EQ(parsed.medium, trace.medium);
  EXPECT_EQ(parsed.seed, trace.seed);
  EXPECT_EQ(parsed.fault, trace.fault);
  EXPECT_EQ(parsed.direction, trace.direction);
  EXPECT_EQ(parsed.warmup, trace.warmup);
  EXPECT_EQ(parsed.duration, trace.duration);
  EXPECT_EQ(parsed.drain, trace.drain);
  EXPECT_EQ(parsed.udp_interval, trace.udp_interval);
  EXPECT_EQ(parsed.payload_size, trace.payload_size);
  EXPECT_EQ(parsed.burst_size, trace.burst_size);
  EXPECT_EQ(parsed.jitter, trace.jitter);
  EXPECT_EQ(parsed.scenario, trace.scenario);
  EXPECT_EQ(parsed.expect, trace.expect);
  EXPECT_EQ(parsed.jsonl, trace.jsonl);

  // Emit -> parse -> emit is the identity on the file bytes.
  EXPECT_EQ(orchestrator::to_json(parsed), text);
}

TEST(ReproTrace, RefusesADurationPastTheClock) {
  // 1e10 ms would overflow the picosecond clock; the error names the field.
  auto text = orchestrator::to_json(orchestrator::ReproTrace{});
  const std::string key = "\"duration_ms\": ";
  const auto at = text.find(key) + key.size();
  text.replace(at, text.find(',', at) - at, "1e10");
  try {
    (void)orchestrator::parse_repro_trace(text);
    FAIL() << "accepted " << text;
  } catch (const orchestrator::CampaignFileError& e) {
    EXPECT_NE(std::string(e.what()).find("duration_ms"), std::string::npos)
        << e.what();
  }
}

TEST(ReproTrace, RejectsTamperedDocuments) {
  EXPECT_THROW(orchestrator::parse_repro_trace("{\"magic\": \"nope\"}"),
               orchestrator::CampaignFileError);
  EXPECT_THROW(orchestrator::parse_repro_trace("{]"),
               orchestrator::CampaignFileError);
  // Unknown keys name themselves, same policy as campaign files.
  try {
    (void)orchestrator::parse_repro_trace(
        "{\"magic\": \"hsfi-repro-v1\", \"sead\": 4}");
    FAIL() << "expected CampaignFileError";
  } catch (const orchestrator::CampaignFileError& e) {
    EXPECT_NE(std::string(e.what()).find("sead"), std::string::npos)
        << e.what();
  }
}

}  // namespace
