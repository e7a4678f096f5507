// Golden-trace determinism tests for the kernel + orchestrator stack.
//
// A fixed 8-run mini-campaign (2 faults x 2 directions x 2 replicates) is
// the probe. Three properties must hold, and must keep holding across any
// kernel rewrite:
//
//  1. The JSONL the orchestrator emits for the campaign is byte-identical
//     when the campaign runs twice, and when it runs with 1 vs 4 workers.
//  2. The kernel event sequence of every run — hashed as FNV-1a over
//     (fire time, execution ordinal, schedule ordinal) tuples from
//     Simulator's event observer — is identical across repeats and worker
//     counts. The ordinals are EventId-representation-independent, so the
//     digest survives queue-implementation changes that preserve delivery
//     order, and catches any that don't.
//  3. The combined digest matches tests/golden/mini_campaign.digest,
//     committed alongside this test. A mismatch means event delivery order
//     changed; that invalidates cross-commit result comparability and must
//     be deliberate. Regenerate with HSFI_UPDATE_GOLDEN=1 after convincing
//     yourself the new order is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"

namespace {

using namespace hsfi;
using myrinet::ControlSymbol;

/// FNV-1a, 64-bit, fed fixed-width little-endian words so the digest does
/// not depend on host integer layout.
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

/// The fixed probe: 2 faults x 2 directions x 2 replicates = 8 runs.
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

struct MiniCampaign {
  std::string jsonl;                 ///< index-ordered, no timing fields
  std::vector<std::string> digests;  ///< per-run event-sequence digests
};

/// Runs the probe on `workers` threads. The executor mirrors the runner's
/// default (private testbed, startup settle, campaign under the watchdog)
/// but hashes every kernel event the run executes, observer attached
/// before start() so construction-time events are covered too.
MiniCampaign run_mini(std::size_t workers) {
  const auto runs = orchestrator::expand(mini_sweep());
  MiniCampaign out;
  out.digests.resize(runs.size());

  orchestrator::RunnerConfig rc;
  rc.workers = workers;
  rc.executor = [&out](const orchestrator::RunSpec& run,
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

/// Index-ordered combination of the per-run digests.
std::string combined_digest(const MiniCampaign& c) {
  Fnv1a all;
  for (const auto& d : c.digests) {
    for (const char ch : d) all.u64(static_cast<std::uint8_t>(ch));
  }
  return all.hex();
}

std::string golden_path() {
  return std::string(HSFI_GOLDEN_DIR) + "/mini_campaign.digest";
}

TEST(GoldenTrace, RepeatedRunIsByteIdentical) {
  const auto first = run_mini(1);
  const auto second = run_mini(1);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.digests, second.digests);
  EXPECT_FALSE(first.jsonl.empty());
}

TEST(GoldenTrace, WorkerCountDoesNotChangeResults) {
  const auto serial = run_mini(1);
  const auto pooled = run_mini(4);
  EXPECT_EQ(serial.jsonl, pooled.jsonl)
      << "JSONL must be byte-identical for --workers 1 vs 4";
  EXPECT_EQ(serial.digests, pooled.digests)
      << "per-run event sequences must not depend on worker count";
}

TEST(GoldenTrace, MatchesCommittedDigest) {
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
      << "event delivery order changed; if intended, regenerate "
      << golden_path() << " with HSFI_UPDATE_GOLDEN=1";
}

}  // namespace
