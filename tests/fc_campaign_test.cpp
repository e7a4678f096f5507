// Golden-trace determinism tests for the Fibre Channel campaign path.
//
// The FC twin of golden_trace_test.cpp: a fixed 8-run mini-campaign
// (2 faults x 2 directions x 2 replicates) over the FcFabric realization.
// The same three properties must hold:
//
//  1. The orchestrator's JSONL for the campaign is byte-identical when the
//     campaign runs twice and when it runs with 1 vs 8 workers.
//  2. The kernel event sequence of every run — hashed as FNV-1a over
//     (fire time, execution ordinal, schedule ordinal) — is identical
//     across repeats and worker counts.
//  3. The combined digest matches tests/golden/fc_mini_campaign.digest.
//     Regenerate with HSFI_UPDATE_GOLDEN=1 only when an event-order change
//     is deliberate.
//
// On top of that, every run must satisfy the accounting invariant the
// analysis layer guarantees on Myrinet: the 8-class manifestation
// breakdown sums to the injection count exactly — no firing unaccounted,
// none double-counted — even though the classes are fed from FC-specific
// monitors (CRC-32, ordered-set parsing, BB-credit stalls, sequence
// reassembly).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fc/frame.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/medium.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"

namespace {

using namespace hsfi;

/// FNV-1a, 64-bit, fed fixed-width little-endian words (same shape as the
/// Myrinet golden-trace digest so the two files are comparable artifacts).
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

/// The fixed probe: one LFSR-random fault and one deterministic
/// ordered-set fault, both directions, 2 replicates = 8 runs.
orchestrator::SweepSpec fc_mini_sweep() {
  orchestrator::SweepSpec sweep;
  sweep.name = "fc-mini";
  sweep.base_seed = 11;
  sweep.replicates = 2;
  sweep.startup_settle = sim::milliseconds(10);
  sweep.directions = {orchestrator::FaultDirection::kFromSwitch,
                      orchestrator::FaultDirection::kBoth};
  sweep.faults.push_back({"seu-00FF", nftape::random_bit_flip_seu(0x00FF), ""});
  sweep.faults.push_back(
      {"sofi3-blank",
       nftape::fc_ordered_set_corruption(fc::OrderedSet::kSofI3, 0x000F), ""});

  sweep.base.medium = nftape::Medium::kFc;
  sweep.testbed.fc.rx_processing_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(5);
  sweep.base.duration = sim::milliseconds(15);
  sweep.base.drain = sim::milliseconds(5);
  sweep.base.workload.udp_interval = sim::microseconds(12);
  sweep.base.workload.burst_size = 4;
  sweep.base.workload.jitter = 0.5;
  sweep.base.workload.payload_size = 256;
  return sweep;
}

struct MiniCampaign {
  std::string jsonl;                 ///< index-ordered, no timing fields
  std::vector<std::string> digests;  ///< per-run event-sequence digests
};

/// Runs the probe on `workers` threads through the Fabric interface —
/// the same construction point the orchestrator's default executor uses
/// (make_fabric on the run's medium), plus the event-hash observer.
MiniCampaign run_fc_mini(std::size_t workers) {
  const auto runs = orchestrator::expand(fc_mini_sweep());
  MiniCampaign out;
  out.digests.resize(runs.size());

  orchestrator::RunnerConfig rc;
  rc.workers = workers;
  rc.executor = [&out](const orchestrator::RunSpec& run,
                       const nftape::RunControl& control) {
    Fnv1a digest;
    const auto fabric =
        nftape::make_fabric(run.campaign.medium, run.testbed);
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
        << ": breakdown must sum to the injection count";
    EXPECT_GT(result.counters.injections, 0u)
        << "run " << run.index << ": the armed FC tap must fire in-window";
    out.digests[run.index] = digest.hex();  // disjoint slot per run
    return result;
  };

  const auto records = orchestrator::Runner(rc).run_all(runs);
  std::ostringstream lines;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, orchestrator::RunOutcome::kOk)
        << "run " << r.index << ": " << r.error;
    EXPECT_EQ(r.medium, nftape::Medium::kFc);
    lines << orchestrator::to_jsonl(r, /*include_timing=*/false) << '\n';
  }
  out.jsonl = lines.str();
  return out;
}

/// Index-ordered combination of the per-run digests.
std::string combined_digest(const MiniCampaign& c) {
  Fnv1a all;
  for (const auto& d : c.digests) {
    for (const char ch : d) all.u64(static_cast<std::uint8_t>(ch));
  }
  return all.hex();
}

std::string golden_path() {
  return std::string(HSFI_GOLDEN_DIR) + "/fc_mini_campaign.digest";
}

TEST(FcCampaign, RepeatedRunIsByteIdentical) {
  const auto first = run_fc_mini(1);
  const auto second = run_fc_mini(1);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.digests, second.digests);
  EXPECT_FALSE(first.jsonl.empty());
}

TEST(FcCampaign, WorkerCountDoesNotChangeResults) {
  const auto serial = run_fc_mini(1);
  const auto pooled = run_fc_mini(8);
  EXPECT_EQ(serial.jsonl, pooled.jsonl)
      << "JSONL must be byte-identical for --workers 1 vs 8";
  EXPECT_EQ(serial.digests, pooled.digests)
      << "per-run event sequences must not depend on worker count";
}

TEST(FcCampaign, MatchesCommittedDigest) {
  const auto campaign = run_fc_mini(1);
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
      << "FC event delivery order changed; if intended, regenerate "
      << golden_path() << " with HSFI_UPDATE_GOLDEN=1";
}

/// Every record carries the medium tag and the FC-specific counters —
/// the JSONL contract run_sweep's per-cell tables depend on.
TEST(FcCampaign, JsonlCarriesMediumAndFcCounters) {
  const auto campaign = run_fc_mini(1);
  std::istringstream lines(campaign.jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_NE(line.find("\"medium\":\"fc\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"fc_credit_stalls\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"fc_seq_aborts\":"), std::string::npos) << line;
  }
  EXPECT_EQ(n, 8u);
}

}  // namespace
