// Tests for the kernel bench harness's exit status: a scenario that
// throws, or whose event count differs between repetitions, fails the
// process instead of vanishing into a 0-event record.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "harness.hpp"

namespace hsfi::bench {
namespace {

Options quick() {
  Options options;
  options.reps = 3;
  options.warmup = 1;
  return options;
}

TEST(BenchHarnessTest, PassingScenariosExitZero) {
  Harness harness(quick());
  harness.measure("steady", [] { return std::uint64_t{42}; });
  EXPECT_EQ(harness.finish(), 0);
  ASSERT_EQ(harness.summaries().size(), 1u);
  EXPECT_EQ(harness.summaries()[0].events, 42u);
}

TEST(BenchHarnessTest, AThrowingBodyFailsTheRun) {
  Harness harness(quick());
  harness.measure("steady", [] { return std::uint64_t{42}; });
  harness.measure("broken", []() -> std::uint64_t {
    throw std::runtime_error("arms executed different event counts");
  });
  EXPECT_NE(harness.finish(), 0);
  // The failed scenario leaves no summary to be read as a 0-event result.
  ASSERT_EQ(harness.summaries().size(), 1u);
  EXPECT_EQ(harness.summaries()[0].bench, "steady");
}

TEST(BenchHarnessTest, ANondeterministicBodyFailsTheRun) {
  Harness harness(quick());
  std::uint64_t calls = 0;
  harness.measure("drifting", [&calls] { return ++calls; });
  EXPECT_NE(harness.finish(), 0);
}

}  // namespace
}  // namespace hsfi::bench
