// Mutation fuzz for the JSONL record reader. Emitted lines get bytes
// flipped, deleted, inserted and truncated, and the mutants go to
// orchestrator::parse_jsonl directly and through monitor::JsonlTailer in
// random chunk sizes, across one truncation of the file. Nothing may
// crash, an accepted mutant must re-emit to a line that reads back and
// re-emits identically, and the tailer must account for every complete
// line it was shown. Fixed seeds; about 2 s in a RelWithDebInfo build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "monitor/jsonl_reader.hpp"
#include "orchestrator/runner.hpp"
#include "random_record.hpp"

namespace {

using namespace hsfi;

/// Emitted lines of every record kind: the seeds mutants grow from.
std::vector<std::string> seed_lines(std::mt19937_64& rng) {
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    lines.push_back(orchestrator::to_jsonl(testing_support::random_record(rng),
                                           rng() % 2 == 0));
  }
  return lines;
}

/// One to three edits: flip a bit, delete a run, insert a byte (JSON
/// punctuation half the time), truncate, or swap the value after a colon
/// for a literal at or past some field's limit.
std::string mutate(std::string line, std::mt19937_64& rng) {
  static const std::string kSyntax = "\"\\{}[],:-.0123456789eE+ tfnul";
  static const char* const kLimits[] = {
      "-1",         "-0",         "0.5",        "1e400",
      "-1e400",     "1e-400",     "4294967296", "2147483648",
      "1000000000.001",           "18446744073709551616",
      "\"x\"",      "null",       "[]",         "{}"};
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !line.empty(); ++e) {
    const std::size_t at = rng() % line.size();
    switch (rng() % 5) {
      case 0:
        line[at] = static_cast<char>(line[at] ^ (1 << (rng() % 8)));
        break;
      case 1:
        line.erase(at, 1 + rng() % 3);
        break;
      case 2:
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                    rng() % 2 ? kSyntax[rng() % kSyntax.size()]
                              : static_cast<char>(rng() % 256));
        break;
      case 3:
        line.resize(at);
        break;
      default: {
        const std::size_t colon = line.find(':', at);
        if (colon == std::string::npos) break;
        const std::size_t end =
            std::min(line.find_first_of(",}", colon), line.size());
        line.replace(colon + 1, end - colon - 1,
                     kLimits[rng() % std::size(kLimits)]);
        break;
      }
    }
  }
  return line;
}

/// An accepted line re-emits (timing on, so wall_ms survives) to a line
/// that reads back and re-emits byte for byte.
void expect_stable(const orchestrator::RunRecord& accepted,
                   const std::string& source) {
  const std::string once = orchestrator::to_jsonl(accepted, true);
  const auto again = orchestrator::parse_jsonl(once);
  ASSERT_TRUE(again.has_value()) << source << "\n -> " << once;
  EXPECT_EQ(orchestrator::to_jsonl(*again, true), once) << source;
}

TEST(JsonlFuzz, MutantsParseOrRefuseAndReemitStably) {
  std::mt19937_64 rng(0x5eed0001);
  const auto lines = seed_lines(rng);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 240000; ++i) {
    const std::string mutant = mutate(lines[rng() % lines.size()], rng);
    if (const auto rec = orchestrator::parse_jsonl(mutant)) {
      ++accepted;
      expect_stable(*rec, mutant);
      if (::testing::Test::HasFailure()) return;
    } else {
      ++refused;
    }
  }
  // Both sides of the reader were exercised.
  EXPECT_GT(accepted, 10000u);
  EXPECT_GT(refused, 10000u);
}

TEST(JsonlFuzz, TailerAccountsForEveryCompleteLine) {
  std::mt19937_64 rng(0x5eed0002);
  const auto lines = seed_lines(rng);
  const std::string path =
      ::testing::TempDir() + "hsfi_jsonl_fuzz_tail.jsonl";
  std::remove(path.c_str());

  monitor::JsonlTailer tailer(path);
  std::uint64_t delivered = 0;
  const auto deliver = [&](const orchestrator::RunRecord& rec) {
    ++delivered;
    expect_stable(rec, rec.name);
  };
  // What parse_jsonl says of every complete, non-empty line written to the
  // file the tailer currently follows (empty lines are skipped unseen).
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  std::string partial;
  const auto account = [&](const std::string& text) {
    for (const char ch : text) {
      if (ch != '\n') {
        partial += ch;
        continue;
      }
      if (!partial.empty()) {
        ++(orchestrator::parse_jsonl(partial) ? good : bad);
      }
      partial.clear();
    }
  };

  std::ofstream out(path, std::ios::binary);
  constexpr int kLines = 8000;
  for (int i = 0; i < kLines; ++i) {
    const std::string& line = lines[rng() % lines.size()];
    std::string text = (i % 4 == 0 ? line : mutate(line, rng)) + '\n';
    if (i == kLines / 2) {
      // Rotate mid-line: the torn tail of the old file must be dropped,
      // never glued onto the new file's first line.
      text.resize(rng() % text.size());
    }
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng() % 256, text.size() - pos);
      out.write(text.data() + pos, static_cast<std::streamsize>(n));
      out.flush();
      account(text.substr(pos, n));
      pos += n;
      tailer.poll(deliver);
    }
    if (i == kLines / 2) {
      out.close();
      out.open(path, std::ios::binary | std::ios::trunc);
      partial.clear();
      EXPECT_EQ(tailer.poll(deliver), 0u);
      EXPECT_EQ(tailer.truncations(), 1u);
    }
  }
  out.close();
  EXPECT_EQ(tailer.poll(deliver), 0u) << "every complete line already seen";
  EXPECT_EQ(delivered, good);
  EXPECT_EQ(tailer.malformed(), bad);
  EXPECT_EQ(delivered + tailer.malformed(), good + bad);
  EXPECT_GT(good, 1000u);
  EXPECT_GT(bad, 1000u);
  EXPECT_EQ(tailer.truncations(), 1u);
  std::remove(path.c_str());
}

}  // namespace
