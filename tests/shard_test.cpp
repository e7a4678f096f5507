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

/// A static shard's fresh checkpoint: the fixture's digest, the shard
/// layout and one cursor.
Checkpoint identity(std::uint32_t shard = 0, std::uint32_t of = 1) {
  Checkpoint ckpt;
  ckpt.spec_digest = fnv1a64(kSpec);
  ckpt.shard = shard;
  ckpt.of = of;
  ckpt.cursors.resize(1);
  return ckpt;
}

/// A static shard's cursor bound: a batch holds at least one run.
DurableLog::Bound bounds(const std::vector<RunSpec>& runs) {
  return {runs.size(), runs.size()};
}

/// The sidecar at `path`, read for the fixture's static shard 0 of 1.
Checkpoint sidecar(const std::string& path) {
  const auto ckpt = read_checkpoint(checkpoint_path(path), identity());
  EXPECT_TRUE(ckpt.has_value()) << path;
  return ckpt.value_or(Checkpoint{});
}

/// Runs every shard of `n` into its own file and merges into `out`.
void run_all_shards_and_merge(const std::vector<RunSpec>& runs,
                              const std::string& out, std::uint32_t n,
                              std::size_t batch) {
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::string path = shard_path(out, k, n);
    const auto mine = shard_runs(runs, k, n);
    auto runner = synthetic_runner();
    DurableLog log(path, identity(k, n), bounds(mine), false, false);
    (void)run_sharded(runner, mine, log, batch);
  }
  (void)merge_shards(runs, out, n);
}

/// Thrown from a log's after_barrier to stop a campaign between barriers:
/// any abnormal exit there looks the same on disk.
struct StopEarly {};

/// Runs the fixture into `out` in batches of `batch` and stops it after
/// `barriers` barriers.
void run_and_stop(const std::vector<RunSpec>& runs, const std::string& out,
                  std::size_t batch, std::uint64_t barriers) {
  auto runner = synthetic_runner();
  DurableLog log(out, identity(), bounds(runs), false, false);
  log.after_barrier = [barriers](const Checkpoint& ckpt) {
    if (ckpt.cursors[0].rounds == barriers) throw StopEarly{};
  };
  EXPECT_THROW((void)run_sharded(runner, runs, log, batch), StopEarly);
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
  ckpt.bytes = 2048;
  ckpt.cursors = {{5, 17, true}, {1, 4, false}};
  write_checkpoint(path, ckpt);
  const auto back = read_checkpoint(path, ckpt);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec_digest, ckpt.spec_digest);
  EXPECT_EQ(back->shard, ckpt.shard);
  EXPECT_EQ(back->of, ckpt.of);
  EXPECT_EQ(back->bytes, ckpt.bytes);
  ASSERT_EQ(back->cursors.size(), 2u);
  EXPECT_EQ(back->cursors[0].rounds, 5u);
  EXPECT_EQ(back->cursors[0].records, 17u);
  EXPECT_TRUE(back->cursors[0].done);
  EXPECT_EQ(back->cursors[1].rounds, 1u);
  EXPECT_EQ(back->cursors[1].records, 4u);
  EXPECT_FALSE(back->cursors[1].done);
}

TEST(ShardTest, CheckpointAbsentIsFreshStartButCorruptIsFatal) {
  EXPECT_FALSE(read_checkpoint(testing::TempDir() + "hsfi_no_such_ckpt",
                               identity())
                   .has_value());
  // A present-but-garbled cursor must never silently restart from zero.
  const std::string path = scratch("ckpt_corrupt") + ".ckpt";
  std::ofstream(path) << "{\"magic\": \"hsfi-ckpt-v2\", \"spec\": tor";
  EXPECT_THROW((void)read_checkpoint(path, identity()), ShardError);
  std::ofstream(path) << "{\"magic\": \"something-else\"}\n";
  EXPECT_THROW((void)read_checkpoint(path, identity()), ShardError);
}

TEST(ShardTest, CheckpointOfAnotherVersionIsRefusedNamingTheFile) {
  // A sidecar of the previous format is never mistaken for an absent one:
  // that would restart a half-finished campaign from zero.
  const auto runs = fixture_runs();
  const std::string out = scratch("v1_sidecar");
  { std::ofstream(out, std::ios::binary) << "{\"run\":0}\n"; }
  const std::string path = checkpoint_path(out);
  std::ofstream(path)
      << "{\"magic\":\"hsfi-ckpt-v1\",\"spec\":\"3167f435752ceebd\","
         "\"shard\":0,\"of\":1,\"batches\":1,\"runs\":1,\"bytes\":10,"
         "\"done\":false}\n";
  try {
    (void)read_checkpoint(path, identity());
    ADD_FAILURE() << "a v1 sidecar was read";
  } catch (const ShardError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("hsfi-ckpt-v1"), std::string::npos) << what;
  }
  EXPECT_THROW(DurableLog(out, identity(), bounds(runs), true, false),
               ShardError);
  EXPECT_EQ(slurp(out), "{\"run\":0}\n");
}

TEST(ShardTest, CheckpointBindsToItsSpecShardLayoutAndCursors) {
  const std::string path = scratch("ckpt_binds") + ".ckpt";
  Checkpoint ckpt;
  ckpt.spec_digest = 0x0123456789ABCDEFull;
  ckpt.bytes = 4096;
  ckpt.cursors = {{3, 12, true}, {1, 4, false}};
  write_checkpoint(path, ckpt);
  ASSERT_TRUE(read_checkpoint(path, ckpt).has_value());
  // Another spec, another shard layout, or another cursor count: refused,
  // since resuming it would splice two different campaigns.
  Checkpoint other = ckpt;
  other.spec_digest = 42;
  EXPECT_THROW((void)read_checkpoint(path, other), ShardError);
  other = ckpt;
  other.shard = 1;
  other.of = 2;
  EXPECT_THROW((void)read_checkpoint(path, other), ShardError);
  other = ckpt;
  other.cursors.resize(3);
  EXPECT_THROW((void)read_checkpoint(path, other), ShardError);
}

// ---------------------------------------------------------------------------
// Execution: merge byte-identity, resume, crash recovery

TEST(ShardTest, MergedShardsAreByteIdenticalToSingleProcess) {
  const auto runs = fixture_runs();

  const std::string single = scratch("single");
  {
    auto runner = synthetic_runner();
    DurableLog log(single, identity(), bounds(runs), false, false);
    EXPECT_EQ(run_sharded(runner, runs, log, 4).size(), runs.size());
    EXPECT_TRUE(log.restored().empty());
  }
  const Checkpoint done = sidecar(single);
  EXPECT_TRUE(done.cursors[0].done);
  EXPECT_EQ(done.cursors[0].rounds, 3u);
  EXPECT_EQ(done.cursors[0].records, runs.size());
  EXPECT_EQ(done.bytes, slurp(single).size());

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
  Checkpoint stale = identity();
  stale.spec_digest = 0x1111111111111111ull;  // some other spec
  stale.cursors[0].records = 2;
  write_checkpoint(checkpoint_path(out), stale);
  EXPECT_THROW(DurableLog(out, identity(), bounds(runs), true, false),
               ShardError);

  // Same spec but a different shard layout is refused too.
  stale = identity(1, 2);
  write_checkpoint(checkpoint_path(out), stale);
  EXPECT_THROW(DurableLog(out, identity(), bounds(runs), true, false),
               ShardError);
}

TEST(ShardTest, ResumeRefusesCheckpointPastTheDataFile) {
  const auto runs = fixture_runs();
  const std::string out = scratch("past_the_end");
  { std::ofstream(out, std::ios::binary) << "{\"run\":0}\n"; }
  Checkpoint claimed = identity();
  claimed.cursors[0] = {1, 1, false};
  claimed.bytes = 1u << 20;  // the file holds 10 bytes
  write_checkpoint(checkpoint_path(out), claimed);

  EXPECT_THROW(DurableLog(out, identity(), bounds(runs), true, false),
               ShardError);
  // Refused before touching the file: no NUL padding up to the claim.
  std::ifstream in(out, std::ios::binary | std::ios::ate);
  EXPECT_EQ(in.tellg(), 10);
}

TEST(ShardTest, ResumeRefusesACursorPastItsBounds) {
  // A cursor may not claim more rounds or records than the campaign can
  // hold, nor more records than its bytes: each is refused, naming the
  // sidecar, before the data file is read.
  const auto runs = fixture_runs();
  const std::string out = scratch("past_bounds");
  run_and_stop(runs, out, 3, 2);
  const Checkpoint durable = sidecar(out);
  const std::string data = slurp(out);
  const auto expect_refused = [&](const Checkpoint::Cursor& cursor,
                                  const std::string& claim) {
    Checkpoint tampered = durable;
    tampered.cursors[0] = cursor;
    write_checkpoint(checkpoint_path(out), tampered);
    try {
      DurableLog log(out, identity(), bounds(runs), true, false);
      ADD_FAILURE() << "resumed from " << claim;
    } catch (const ShardError& e) {
      EXPECT_NE(std::string(e.what()).find(checkpoint_path(out) +
                                           ": target 0 claims " + claim),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(slurp(out), data);
  };
  expect_refused({13, 6, false}, "13 rounds but the spec allows 12");
  expect_refused({2, 13, false}, "13 records");
  Checkpoint tiny = durable;
  tiny.bytes = 5;
  write_checkpoint(checkpoint_path(out), tiny);
  EXPECT_THROW(DurableLog(out, identity(), bounds(runs), true, false),
               ShardError);
  EXPECT_EQ(slurp(out), data);
}

TEST(ShardTest, ResumeRefusesAPrefixThatIsNotItsWholeRecords) {
  // The sidecar's byte count must end the durable prefix on a record
  // boundary after exactly its record count. A prefix ending inside a
  // record, or holding a record more or less than the count, is refused,
  // naming the data file, before anything is truncated.
  const auto runs = fixture_runs();
  const std::string out = scratch("not_whole_records");
  run_and_stop(runs, out, 3, 2);
  const Checkpoint durable = sidecar(out);
  const std::string data = slurp(out);
  ASSERT_EQ(durable.cursors[0].records, 6u);
  ASSERT_EQ(durable.bytes, data.size());

  const auto expect_refused = [&](const Checkpoint& tampered) {
    write_checkpoint(checkpoint_path(out), tampered);
    try {
      DurableLog log(out, identity(), bounds(runs), true, false);
      ADD_FAILURE() << "resumed from records " << tampered.cursors[0].records
                    << ", bytes " << tampered.bytes;
    } catch (const ShardError& e) {
      EXPECT_NE(std::string(e.what()).find(out), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(slurp(out), data);
  };
  Checkpoint torn = durable;
  torn.bytes = data.find('\n') + 11;  // inside the second record
  expect_refused(torn);
  Checkpoint fewer_records = durable;
  fewer_records.cursors[0].records = 5;  // a sixth record past the count
  expect_refused(fewer_records);
  Checkpoint more_records = durable;
  more_records.cursors[0].records = 7;
  expect_refused(more_records);
}

TEST(ShardTest, ResumeSkipsDurableRunsAndExecutesTheRest) {
  const auto runs = fixture_runs();
  const std::string reference = scratch("resume_ref");
  {
    auto runner = synthetic_runner();
    DurableLog log(reference, identity(), bounds(runs), false, false);
    (void)run_sharded(runner, runs, log, 3);
  }

  // First leg: stop cleanly after 2 batches.
  const std::string out = scratch("resume_cut");
  run_and_stop(runs, out, 3, 2);
  EXPECT_FALSE(sidecar(out).cursors[0].done);

  // Second leg resumes: 6 runs restored, the remaining 6 executed.
  auto runner = synthetic_runner();
  DurableLog log(out, identity(), bounds(runs), true, false);
  ASSERT_EQ(log.restored().size(), 6u);
  EXPECT_EQ(log.restored().front().index, 0u);
  EXPECT_EQ(log.restored().back().index, 5u);
  const auto executed = run_sharded(runner, runs, log, 3);
  EXPECT_EQ(executed.size(), runs.size() - 6);
  EXPECT_EQ(executed.front().index, 6u);
  EXPECT_TRUE(sidecar(out).cursors[0].done);
  EXPECT_EQ(sidecar(out).cursors[0].rounds, 4u);
  EXPECT_EQ(slurp(out), slurp(reference));
}

TEST(ShardTest, LogResumesEveryCursorWithItsRecordsInFileOrder) {
  // A strategy campaign keeps one cursor per target; the log counts each
  // barrier's records on the cursor it names and hands every durable
  // record back on resume, in the order it was appended.
  const auto runs = fixture_runs();
  const std::string out = scratch("two_cursors");
  Checkpoint fresh = identity();
  fresh.cursors.resize(2);
  const DurableLog::Bound unbounded;
  auto runner = synthetic_runner();
  const auto records = runner.run_all(runs);
  {
    DurableLog log(out, fresh, unbounded, false, false);
    log.append(records[0]);
    log.append(records[1]);
    log.barrier(0);
    log.finish(0);
    log.append(records[2]);
    log.barrier(1);
    log.append(records[3]);  // never committed: dropped on resume
  }
  DurableLog log(out, fresh, unbounded, true, false);
  const Checkpoint& ckpt = log.checkpoint();
  EXPECT_EQ(ckpt.cursors[0].rounds, 1u);
  EXPECT_EQ(ckpt.cursors[0].records, 2u);
  EXPECT_TRUE(ckpt.cursors[0].done);
  EXPECT_EQ(ckpt.cursors[1].rounds, 1u);
  EXPECT_EQ(ckpt.cursors[1].records, 1u);
  EXPECT_FALSE(ckpt.cursors[1].done);
  ASSERT_EQ(log.restored().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(to_jsonl(log.restored()[i]), to_jsonl(records[i]));
  }
  EXPECT_EQ(slurp(out).size(), ckpt.bytes);
}

TEST(ShardTest, KilledMidCampaignResumesByteIdentical) {
  // The full crash contract, process-grade: fork a child that appends a
  // torn, newline-less record after its second barrier and dies via
  // _exit (no atexit, no flush — the SIGKILL shape), then resume in the
  // parent and demand the uninterrupted bytes.
  const auto runs = fixture_runs();
  const std::string reference = scratch("kill_ref");
  {
    auto runner = synthetic_runner();
    DurableLog log(reference, identity(), bounds(runs), false, false);
    (void)run_sharded(runner, runs, log, 2);
  }

  const std::string out = scratch("kill_cut");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      auto runner = synthetic_runner();
      DurableLog log(out, identity(), bounds(runs), false, false);
      log.after_barrier = [&out](const Checkpoint& ckpt) {
        if (ckpt.cursors[0].rounds < 2) return;
        const int fd =
            ::open(out.c_str(), O_WRONLY | O_APPEND);  // torn trailing record
        if (fd >= 0) {
          const char torn[] = "{\"run\":999,\"name\":\"torn-by-cra";
          (void)!::write(fd, torn, sizeof(torn) - 1);
        }
        ::_exit(9);
      };
      (void)run_sharded(runner, runs, log, 2);
    } catch (...) {
    }
    ::_exit(1);  // crash hook never fired — fail loudly
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 9);

  // The torn tail is really there, past the durable cursor.
  const Checkpoint cut = sidecar(out);
  EXPECT_FALSE(cut.cursors[0].done);
  EXPECT_EQ(cut.cursors[0].records, 4u);
  EXPECT_GT(slurp(out).size(), cut.bytes);

  // Resume truncates the tail and re-executes from the durable prefix.
  auto runner = synthetic_runner();
  DurableLog log(out, identity(), bounds(runs), true, false);
  EXPECT_EQ(log.restored().size(), 4u);
  EXPECT_EQ(run_sharded(runner, runs, log, 2).size(), runs.size() - 4);
  EXPECT_EQ(slurp(out), slurp(reference));
  EXPECT_TRUE(sidecar(out).cursors[0].done);
}

}  // namespace
}  // namespace hsfi::orchestrator
