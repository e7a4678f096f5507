// The observation stream as the campaign runner uses it, on both media:
//
//  1. The analyzer's input is pinned. A recording subscriber applies the
//     analyzer's own kind table to every run of
//     examples/specs/mini_{campaign,scenario}.json and digests what the
//     analyzer is fed: each injection's time, and each effect's time,
//     class and source (numbered by first appearance within its run). The
//     pinned values were computed from the analyzer's record_* calls when
//     per-component hooks still fed it, so they show the stream delivers
//     the same sequence.
//  2. An extra subscriber on every run perturbs nothing: the JSONL, events
//     included, is byte-identical to a plain run.
//  3. No subscriber outlives a run the watchdog cancelled.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/jsonl.hpp"
#include "orchestrator/runner.hpp"
#include "sim/observation.hpp"

namespace hsfi {
namespace {

using analysis::Evidence;

struct Fnv1a {
  std::uint64_t state = 1469598103934665603ULL;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xFF;
      state *= 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
};

/// Digests one run's analyzer input through the analyzer's kind table.
struct InputRecorder final : sim::Observer {
  Fnv1a digest;
  std::vector<std::pair<std::string, std::uint32_t>> emitters;
  std::uint64_t injections = 0;
  std::uint64_t effects = 0;

  void on_observation(const sim::Observation& o) override {
    const Evidence e = analysis::evidence(o.kind);
    if (e.role == Evidence::Role::kInjection) {
      ++injections;
      digest.u64(1);
      digest.i64(o.when);
    } else if (e.role == Evidence::Role::kEffect) {
      ++effects;
      digest.u64(2);
      digest.i64(o.when);
      digest.u64(static_cast<std::uint64_t>(e.what));
      digest.u64(source_of(o.where, o.unit));
    }
  }

  std::uint64_t source_of(std::string_view where, std::uint32_t unit) {
    for (std::size_t i = 0; i < emitters.size(); ++i) {
      if (emitters[i].first == where && emitters[i].second == unit) return i;
    }
    emitters.emplace_back(std::string(where), unit);
    return emitters.size() - 1;
  }
};

/// Counts every observation, trace points included.
struct Counter final : sim::Observer {
  std::uint64_t seen = 0;
  void on_observation(const sim::Observation&) override { ++seen; }
};

std::vector<orchestrator::RunSpec> mini_campaign_runs() {
  return orchestrator::expand_campaign(orchestrator::load_campaign_file(
      std::string(HSFI_SPEC_DIR) + "/mini_campaign.json"));
}

/// Builds and settles the run's fabric like the runner's own executor,
/// subscribes `extra` for the whole run, and runs the campaign.
nftape::CampaignResult run_with(const orchestrator::RunSpec& run,
                                const nftape::RunControl& control,
                                sim::Observer& extra) {
  const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->sim().subscribe(extra);
  fabric->start();
  fabric->settle(run.startup_settle);
  nftape::CampaignRunner runner(*fabric);
  auto result = runner.run(run.campaign, &control, run.startup_settle);
  fabric->sim().unsubscribe(extra);
  EXPECT_FALSE(fabric->sim().observed()) << "run " << run.index;
  return result;
}

std::string jsonl_of(const std::vector<orchestrator::RunRecord>& records) {
  std::ostringstream out;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, orchestrator::RunOutcome::kOk)
        << "run " << r.index << ": " << r.error;
    out << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
  }
  return out.str();
}

/// The combined digest of the analyzer's input over every run of `spec`.
std::string analyzer_input_digest(const std::string& spec) {
  const auto runs = orchestrator::expand_campaign(
      orchestrator::load_campaign_file(std::string(HSFI_SPEC_DIR) + "/" +
                                       spec));
  std::vector<InputRecorder> recorders(runs.size());

  orchestrator::RunnerConfig rc;
  rc.workers = 2;
  rc.executor = [&recorders](const orchestrator::RunSpec& run,
                             const nftape::RunControl& control) {
    InputRecorder& rec = recorders[run.index];  // disjoint slot per run
    const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
    fabric->start();
    fabric->settle(run.startup_settle);
    // Subscribed across exactly the span the analyzer is: reset and
    // clear_workload emit nothing, so this sees what the analyzer sees.
    fabric->sim().subscribe(rec);
    nftape::CampaignRunner runner(*fabric);
    auto result = runner.run(run.campaign, &control, run.startup_settle);
    fabric->sim().unsubscribe(rec);
    // The window's firings, plus those of warm-up, drain and recovery.
    EXPECT_GE(rec.injections, result.counters.injections)
        << "run " << run.index;
    return result;
  };
  (void)jsonl_of(orchestrator::Runner(rc).run_all(runs));

  Fnv1a all;
  std::uint64_t effects = 0;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    all.u64(i);
    all.u64(recorders[i].digest.state);
    effects += recorders[i].effects;
    EXPECT_GT(recorders[i].injections, 0u) << spec << " run " << i;
  }
  EXPECT_GT(effects, 0u) << spec;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(all.state));
  return hex;
}

TEST(ObservationTest, AnalyzerInputMatchesThePinnedDigest) {
  // mini_scenario.json adds scenario steps on both media and corrupted
  // FC deliveries, which mini_campaign.json does not reach.
  EXPECT_EQ(analyzer_input_digest("mini_campaign.json"), "dd6f7f43e36b9045");
  EXPECT_EQ(analyzer_input_digest("mini_scenario.json"), "828e07cdf5f42e87");
}

TEST(ObservationTest, ExtraSubscriberPerturbsNothing) {
  const auto runs = mini_campaign_runs();
  orchestrator::RunnerConfig plain;
  plain.workers = 2;
  const auto expected = jsonl_of(orchestrator::Runner(plain).run_all(runs));

  std::vector<Counter> counters(runs.size());
  orchestrator::RunnerConfig counted = plain;
  counted.executor = [&counters](const orchestrator::RunSpec& run,
                                 const nftape::RunControl& control) {
    return run_with(run, control, counters[run.index]);
  };
  const auto got = jsonl_of(orchestrator::Runner(counted).run_all(runs));
  EXPECT_EQ(got, expected);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_GT(counters[i].seen, 0u) << "run " << i;
  }
}

TEST(ObservationTest, NoSubscriberOutlivesACancelledRun) {
  // One run of each medium, its simulated-time cap 3 ms past the startup
  // settle: the watchdog cancels it while the analyzer is subscribed.
  std::vector<orchestrator::RunSpec> picked;
  for (const auto& run : mini_campaign_runs()) {
    if (picked.empty() ||
        run.campaign.medium != picked.back().campaign.medium) {
      picked.push_back(run);
      picked.back().index = 0;
    }
  }
  ASSERT_EQ(picked.size(), 2u);

  for (const auto& run : picked) {
    bool cancelled = false;
    bool observed_after = true;
    orchestrator::RunnerConfig rc;
    rc.workers = 1;
    rc.max_retries = 0;
    rc.poll_interval = sim::milliseconds(1);
    rc.sim_limit = run.startup_settle + sim::milliseconds(3);
    rc.executor = [&](const orchestrator::RunSpec& r,
                      const nftape::RunControl& control) {
      const auto fabric = nftape::make_fabric(r.campaign.medium, r.testbed);
      fabric->start();
      fabric->settle(r.startup_settle);
      nftape::CampaignRunner runner(*fabric);
      try {
        return runner.run(r.campaign, &control, r.startup_settle);
      } catch (const nftape::RunCancelled&) {
        cancelled = true;
        observed_after = fabric->sim().observed();
        throw;
      }
    };
    const auto records = orchestrator::Runner(rc).run_all({run});
    EXPECT_EQ(records.at(0).outcome, orchestrator::RunOutcome::kTimedOut);
    EXPECT_TRUE(cancelled) << run.campaign.name;
    EXPECT_FALSE(observed_after) << run.campaign.name;
  }
}

}  // namespace
}  // namespace hsfi
