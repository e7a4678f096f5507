// Tests for sharded, checkpointed campaign execution: seed-keyed
// partitioning (disjoint cover), checkpoint sidecar round-trips, the
// byte-identity of N merged shards vs one process, and crash recovery —
// a forked child is hard-killed mid-campaign with a torn trailing record
// and the resumed run must reproduce the uninterrupted bytes exactly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "orchestrator/campaign_file.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/shard.hpp"
#include "orchestrator/sweep.hpp"

namespace hsfi::orchestrator {
namespace {

// A small dual-target campaign: 12 runs, two media, deterministic.
constexpr const char* kSpec = R"({
  "name": "shard-fixture", "seed": 7,
  "defaults": {"replicates": 2, "directions": ["from-switch", "both"],
               "warmup_ms": 2, "duration_ms": 5, "drain_ms": 2},
  "targets": [
    {"name": "myri", "medium": "myrinet", "faults": ["gap-go", "seu-00FF"]},
    {"name": "fc", "medium": "fc", "faults": ["fill-flip"]}
  ]})";

std::vector<RunSpec> fixture_runs() {
  return expand_campaign(parse_campaign_file(kSpec));
}

// Synthetic executor: a deterministic pure function of the RunSpec, so
// shard tests exercise the partition/durability machinery without paying
// for simulated testbeds.
Runner synthetic_runner() {
  RunnerConfig rc;
  rc.workers = 4;
  rc.executor = [](const RunSpec& run, const nftape::RunControl&) {
    nftape::CampaignResult r;
    r.name = run.campaign.name;
    r.medium = run.campaign.medium;
    r.counters.messages_sent = 1000 + run.seed % 97;
    r.counters.messages_received = r.counters.messages_sent - run.seed % 5;
    r.counters.injections = run.seed % 7;
    r.events_executed = 10 + run.index;
    r.window = run.campaign.duration;
    return r;
  };
  return Runner(rc);
}

std::string scratch(const std::string& name) {
  const std::string path = testing::TempDir() + "hsfi_shard_" + name;
  std::remove(path.c_str());
  std::remove(checkpoint_path(path).c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs every shard of `n` into its own file and merges into `out`.
void run_all_shards_and_merge(const std::vector<RunSpec>& runs,
                              const std::string& out, std::uint32_t n,
                              std::size_t batch) {
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::string path = shard_path(out, k, n);
    std::remove(path.c_str());
    std::remove(checkpoint_path(path).c_str());
    Checkpoint identity;
    identity.spec_digest = fnv1a64(kSpec);
    identity.shard = k;
    identity.of = n;
    auto runner = synthetic_runner();
    ShardOptions opts;
    opts.batch = batch;
    (void)run_sharded(runner, shard_runs(runs, k, n), path, identity, opts);
  }
  (void)merge_shards(runs, out, n);
}

// ---------------------------------------------------------------------------
// Partitioning

TEST(ShardTest, ShardOfDegeneratesAndStaysInRange) {
  EXPECT_EQ(shard_of(12345, 0), 0u);
  EXPECT_EQ(shard_of(12345, 1), 0u);
  for (const std::uint32_t n : {2u, 3u, 7u, 4096u}) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      EXPECT_LT(shard_of(seed, n), n);
    }
  }
}

TEST(ShardTest, PartitionIsDisjointCover) {
  // The distributed-campaign invariant: for any N, the shards cover every
  // run exactly once and each preserves global index order.
  const auto runs = fixture_runs();
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 7u, 13u}) {
    std::set<std::size_t> covered;
    std::size_t total = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto mine = shard_runs(runs, k, n);
      total += mine.size();
      std::size_t prev_index = 0;
      bool first = true;
      for (const auto& run : mine) {
        EXPECT_EQ(shard_of(run.seed, n), k);
        EXPECT_TRUE(covered.insert(run.index).second)
            << "run " << run.index << " owned twice (n=" << n << ")";
        if (!first) {
          EXPECT_GT(run.index, prev_index) << "order not preserved";
        }
        prev_index = run.index;
        first = false;
      }
    }
    EXPECT_EQ(total, runs.size()) << "n=" << n;
    EXPECT_EQ(covered.size(), runs.size()) << "n=" << n;
  }
}

TEST(ShardTest, ShardRunsRejectsOutOfRangeIndex) {
  const auto runs = fixture_runs();
  EXPECT_THROW((void)shard_runs(runs, 2, 2), ShardError);
  EXPECT_THROW((void)shard_runs(runs, 0, 0), ShardError);
  EXPECT_NO_THROW((void)shard_runs(runs, 0, 1));
}

TEST(ShardTest, ShardPathNaming) {
  EXPECT_EQ(shard_path("/tmp/out.jsonl", 0, 1), "/tmp/out.jsonl");
  EXPECT_EQ(shard_path("/tmp/out.jsonl", 2, 4), "/tmp/out.jsonl.shard2of4");
  EXPECT_EQ(checkpoint_path("/tmp/out.jsonl"), "/tmp/out.jsonl.ckpt");
}

// ---------------------------------------------------------------------------
// Checkpoint sidecar

TEST(ShardTest, CheckpointRoundTrips) {
  const std::string path = scratch("ckpt_roundtrip") + ".ckpt";
  Checkpoint ckpt;
  ckpt.spec_digest = 0xDEADBEEFCAFEF00Dull;
  ckpt.shard = 3;
  ckpt.of = 4;
  ckpt.batches = 5;
  ckpt.runs = 17;
  ckpt.bytes = 2048;
  ckpt.done = true;
  write_checkpoint(path, ckpt);
  const auto back = read_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec_digest, ckpt.spec_digest);
  EXPECT_EQ(back->shard, ckpt.shard);
  EXPECT_EQ(back->of, ckpt.of);
  EXPECT_EQ(back->batches, ckpt.batches);
  EXPECT_EQ(back->runs, ckpt.runs);
  EXPECT_EQ(back->bytes, ckpt.bytes);
  EXPECT_TRUE(back->done);
}

TEST(ShardTest, CheckpointAbsentIsFreshStartButCorruptIsFatal) {
  EXPECT_FALSE(
      read_checkpoint(testing::TempDir() + "hsfi_no_such_ckpt").has_value());
  // A present-but-garbled cursor must never silently restart from zero.
  const std::string path = scratch("ckpt_corrupt") + ".ckpt";
  std::ofstream(path) << "{\"magic\": \"hsfi-ckpt-v1\", \"spec\": tor";
  EXPECT_THROW((void)read_checkpoint(path), ShardError);
  std::ofstream(path) << "{\"magic\": \"something-else\"}\n";
  EXPECT_THROW((void)read_checkpoint(path), ShardError);
}

TEST(ShardTest, RoundCheckpointRoundTripsAndBindsToItsSpec) {
  const std::string path = scratch("round_ckpt") + ".ckpt";
  RoundCheckpoint ckpt;
  ckpt.spec_digest = 0x0123456789ABCDEFull;
  ckpt.bytes = 4096;
  ckpt.targets = {{3, 12, true}, {1, 4, false}};
  write_round_checkpoint(path, ckpt);
  const auto back = read_round_checkpoint(path, ckpt.spec_digest, 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bytes, 4096u);
  ASSERT_EQ(back->targets.size(), 2u);
  EXPECT_EQ(back->targets[0].rounds, 3u);
  EXPECT_EQ(back->targets[0].records, 12u);
  EXPECT_TRUE(back->targets[0].done);
  EXPECT_EQ(back->targets[1].records, 4u);
  EXPECT_FALSE(back->targets[1].done);

  EXPECT_FALSE(read_round_checkpoint(testing::TempDir() + "hsfi_no_round",
                                     ckpt.spec_digest, 2)
                   .has_value());
  // Another spec, another target count, or a static sidecar: refused.
  EXPECT_THROW((void)read_round_checkpoint(path, 42, 2), ShardError);
  EXPECT_THROW((void)read_round_checkpoint(path, ckpt.spec_digest, 3),
               ShardError);
  Checkpoint static_ckpt;
  static_ckpt.spec_digest = ckpt.spec_digest;
  write_checkpoint(path, static_ckpt);
  EXPECT_THROW((void)read_round_checkpoint(path, ckpt.spec_digest, 2),
               ShardError);
}

// ---------------------------------------------------------------------------
// Execution: merge byte-identity, resume, crash recovery

TEST(ShardTest, MergedShardsAreByteIdenticalToSingleProcess) {
  const auto runs = fixture_runs();

  const std::string single = scratch("single");
  Checkpoint identity;
  identity.spec_digest = fnv1a64(kSpec);
  auto runner = synthetic_runner();
  ShardOptions opts;
  opts.batch = 4;
  const auto result = run_sharded(runner, runs, single, identity, opts);
  EXPECT_EQ(result.executed.size(), runs.size());
  EXPECT_EQ(result.restored, 0u);
  const auto sidecar = read_checkpoint(checkpoint_path(single));
  ASSERT_TRUE(sidecar.has_value());
  EXPECT_TRUE(sidecar->done);
  EXPECT_EQ(sidecar->runs, runs.size());
  EXPECT_EQ(sidecar->bytes, slurp(single).size());

  for (const std::uint32_t n : {2u, 4u}) {
    const std::string out = scratch("merged" + std::to_string(n));
    run_all_shards_and_merge(runs, out, n, /*batch=*/2);
    EXPECT_EQ(slurp(out), slurp(single)) << n << " shards";
  }
}

TEST(ShardTest, MergeRejectsUnfinishedShards) {
  const auto runs = fixture_runs();
  const std::string out = scratch("merge_guard");
  run_all_shards_and_merge(runs, out, 2, /*batch=*/2);

  // Drop the last record of shard 0: the merge must refuse, not emit a
  // file with a silent gap.
  const std::string victim = shard_path(out, 0, 2);
  const std::string text = slurp(victim);
  ASSERT_FALSE(text.empty());
  const auto cut = text.find_last_of('\n', text.size() - 2);
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      << (cut == std::string::npos ? "" : text.substr(0, cut + 1));
  EXPECT_THROW((void)merge_shards(runs, out, 2), ShardError);

  // A missing shard file entirely is also fatal.
  std::remove(victim.c_str());
  EXPECT_THROW((void)merge_shards(runs, out, 2), ShardError);
}

TEST(ShardTest, ResumeRefusesForeignCheckpoint) {
  const auto runs = fixture_runs();
  const std::string out = scratch("foreign");
  Checkpoint stale;
  stale.spec_digest = 0x1111111111111111ull;  // some other spec
  stale.runs = 2;
  write_checkpoint(checkpoint_path(out), stale);

  Checkpoint identity;
  identity.spec_digest = fnv1a64(kSpec);
  auto runner = synthetic_runner();
  ShardOptions opts;
  opts.resume = true;
  EXPECT_THROW((void)run_sharded(runner, runs, out, identity, opts),
               ShardError);

  // Same spec but a different shard layout is refused too.
  stale.spec_digest = identity.spec_digest;
  stale.shard = 1;
  stale.of = 2;
  write_checkpoint(checkpoint_path(out), stale);
  EXPECT_THROW((void)run_sharded(runner, runs, out, identity, opts),
               ShardError);
}

TEST(ShardTest, ResumeRefusesCheckpointPastTheDataFile) {
  const auto runs = fixture_runs();
  const std::string out = scratch("past_the_end");
  { std::ofstream(out, std::ios::binary) << "{\"run\":0}\n"; }
  Checkpoint identity;
  identity.spec_digest = fnv1a64(kSpec);
  Checkpoint claimed = identity;
  claimed.runs = 1;
  claimed.bytes = 1u << 20;  // the file holds 10 bytes
  write_checkpoint(checkpoint_path(out), claimed);

  auto runner = synthetic_runner();
  ShardOptions opts;
  opts.resume = true;
  EXPECT_THROW((void)run_sharded(runner, runs, out, identity, opts),
               ShardError);
  // Refused before touching the file: no NUL padding up to the claim.
  std::ifstream in(out, std::ios::binary | std::ios::ate);
  EXPECT_EQ(in.tellg(), 10);
}

TEST(ShardTest, ResumeRefusesAPrefixThatIsNotItsWholeRecords) {
  // The sidecar's byte count must end the durable prefix on a record
  // boundary after exactly its run count. A prefix ending inside a record,
  // or holding a record more or less than the count, is refused, naming
  // the data file, before anything is truncated.
  const auto runs = fixture_runs();
  const std::string out = scratch("not_whole_records");
  Checkpoint identity;
  identity.spec_digest = fnv1a64(kSpec);
  ShardOptions opts;
  opts.batch = 3;
  struct StopEarly {};
  ShardOptions first = opts;
  first.after_batch = [](const Checkpoint& ckpt) {
    if (ckpt.batches == 2) throw StopEarly{};
  };
  {
    auto runner = synthetic_runner();
    EXPECT_THROW((void)run_sharded(runner, runs, out, identity, first),
                 StopEarly);
  }
  const auto cut = read_checkpoint(checkpoint_path(out));
  ASSERT_TRUE(cut.has_value());
  const Checkpoint durable = *cut;
  const std::string data = slurp(out);
  ASSERT_EQ(durable.runs, 6u);
  ASSERT_EQ(durable.bytes, data.size());

  ShardOptions resume = opts;
  resume.resume = true;
  const auto expect_refused = [&](const Checkpoint& tampered) {
    write_checkpoint(checkpoint_path(out), tampered);
    auto runner = synthetic_runner();
    try {
      (void)run_sharded(runner, runs, out, identity, resume);
      ADD_FAILURE() << "resumed from runs " << tampered.runs << ", bytes "
                    << tampered.bytes;
    } catch (const ShardError& e) {
      EXPECT_NE(std::string(e.what()).find(out), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(slurp(out), data);
  };
  Checkpoint torn = durable;
  torn.bytes = data.find('\n') + 11;  // inside the second record
  expect_refused(torn);
  Checkpoint fewer_runs = durable;
  fewer_runs.runs = 5;  // the prefix holds a sixth record past the count
  expect_refused(fewer_runs);
  Checkpoint more_runs = durable;
  more_runs.runs = 7;
  expect_refused(more_runs);
}

TEST(ShardTest, ResumeSkipsDurableRunsAndExecutesTheRest) {
  const auto runs = fixture_runs();
  const std::string reference = scratch("resume_ref");
  Checkpoint identity;
  identity.spec_digest = fnv1a64(kSpec);
  ShardOptions opts;
  opts.batch = 3;
  {
    auto runner = synthetic_runner();
    (void)run_sharded(runner, runs, reference, identity, opts);
  }

  // First leg: stop cleanly after 2 batches (throw from the after_batch
  // seam — any abnormal exit between batches looks the same on disk).
  const std::string out = scratch("resume_cut");
  struct StopEarly {};
  ShardOptions first = opts;
  first.after_batch = [](const Checkpoint& ckpt) {
    if (ckpt.batches == 2) throw StopEarly{};
  };
  {
    auto runner = synthetic_runner();
    EXPECT_THROW((void)run_sharded(runner, runs, out, identity, first),
                 StopEarly);
  }
  EXPECT_FALSE(read_checkpoint(checkpoint_path(out))->done);

  // Second leg resumes: 6 runs restored, the remaining 6 executed.
  ShardOptions second = opts;
  second.resume = true;
  auto runner = synthetic_runner();
  const auto result = run_sharded(runner, runs, out, identity, second);
  EXPECT_EQ(result.restored, 6u);
  EXPECT_EQ(result.executed.size(), runs.size() - 6);
  EXPECT_EQ(result.executed.front().index, 6u);
  EXPECT_TRUE(read_checkpoint(checkpoint_path(out))->done);
  EXPECT_EQ(slurp(out), slurp(reference));
}

TEST(ShardTest, KilledMidCampaignResumesByteIdentical) {
  // The full crash contract, process-grade: fork a child that appends a
  // torn, newline-less record after its second durable batch and dies via
  // _exit (no atexit, no flush — the SIGKILL shape), then resume in the
  // parent and demand the uninterrupted bytes.
  const auto runs = fixture_runs();
  const std::string reference = scratch("kill_ref");
  Checkpoint identity;
  identity.spec_digest = fnv1a64(kSpec);
  ShardOptions opts;
  opts.batch = 2;
  {
    auto runner = synthetic_runner();
    (void)run_sharded(runner, runs, reference, identity, opts);
  }

  const std::string out = scratch("kill_cut");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ShardOptions crashing = opts;
    crashing.after_batch = [&out](const Checkpoint& ckpt) {
      if (ckpt.batches < 2) return;
      const int fd =
          ::open(out.c_str(), O_WRONLY | O_APPEND);  // torn trailing record
      if (fd >= 0) {
        const char torn[] = "{\"run\":999,\"name\":\"torn-by-cra";
        (void)!::write(fd, torn, sizeof(torn) - 1);
      }
      ::_exit(9);
    };
    auto runner = synthetic_runner();
    try {
      (void)run_sharded(runner, runs, out, identity, crashing);
    } catch (...) {
    }
    ::_exit(1);  // crash hook never fired — fail loudly
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 9);

  // The torn tail is really there, past the durable cursor.
  const auto cut = read_checkpoint(checkpoint_path(out));
  ASSERT_TRUE(cut.has_value());
  EXPECT_FALSE(cut->done);
  EXPECT_EQ(cut->runs, 4u);
  EXPECT_GT(slurp(out).size(), cut->bytes);

  // Resume truncates the tail and re-executes from the durable prefix.
  ShardOptions resume = opts;
  resume.resume = true;
  auto runner = synthetic_runner();
  const auto result = run_sharded(runner, runs, out, identity, resume);
  EXPECT_EQ(result.restored, 4u);
  EXPECT_EQ(result.executed.size(), runs.size() - 4);
  EXPECT_EQ(slurp(out), slurp(reference));
  EXPECT_TRUE(read_checkpoint(checkpoint_path(out))->done);
}

}  // namespace
}  // namespace hsfi::orchestrator
