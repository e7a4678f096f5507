// The batched symbol path's equivalence and regression pins.
//
// clock_burst() must be step-for-step equivalent to per-character clock()
// for every configuration — the fast tier (nothing armed, all-don't-care
// compare) and the general tier alike. The property test here drives both
// through randomized schedules of bursts, idle gaps, mid-stream triggers,
// forced inject-now strobes, and drain tails, and demands symbol-identical
// output with identical Stats and compare-register state.
//
// Also pinned: the fixed-capacity ring honors Params::fifo_capacity at its
// tightest legal setting, find_next_control stops at every control symbol
// (including across 64-symbol boundaries), and the FcSerdes reusable-buffer
// overloads reproduce the allocating ones while actually reusing storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "core/fifo_injector.hpp"
#include "fc/frame.hpp"
#include "link/channel.hpp"
#include "myrinet/control.hpp"
#include "phy/serdes.hpp"

namespace hsfi::core {
namespace {

using link::Symbol;

// ---------------------------------------------------------------------------
// clock_burst vs clock() property test.

struct Trace {
  std::vector<Symbol> out;     ///< every character that left the device
  std::vector<std::uint64_t> fires;  ///< stream offsets whose even clock fired
  FifoInjector::Stats stats;
  std::uint32_t window_data = 0;
  std::uint8_t window_ctl = 0;
  std::size_t occupancy = 0;
};

/// One schedule step: a burst of characters, or `gap` idle clock pairs, or
/// an inject-now strobe before the next step.
struct Step {
  std::vector<Symbol> burst;
  std::size_t gap = 0;
  bool strobe = false;
};

std::vector<Step> random_schedule(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> burst_len(1, 96);
  std::uniform_int_distribution<int> gap_len(1, 30);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> ctl(0, 7);
  std::vector<Step> steps;
  const std::size_t n_steps = 12 + rng() % 12;
  for (std::size_t i = 0; i < n_steps; ++i) {
    Step step;
    const int k = kind(rng);
    if (k < 6) {
      const int len = burst_len(rng);
      step.burst.reserve(static_cast<std::size_t>(len));
      for (int j = 0; j < len; ++j) {
        // Bias toward data; control characters exercise the ctl window.
        const bool control = ctl(rng) == 0;
        step.burst.push_back(
            Symbol{static_cast<std::uint8_t>(byte(rng)), control});
      }
    } else if (k < 9) {
      step.gap = static_cast<std::size_t>(gap_len(rng));
    } else {
      step.strobe = true;
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

/// Reference semantics: one clock() call per character / idle pair.
Trace run_per_char(FifoInjector& inj, const std::vector<Step>& steps) {
  Trace t;
  std::uint64_t offset = 0;
  const auto record = [&t](const FifoInjector::Result& r, std::uint64_t at,
                           bool counts) {
    if (r.out) t.out.push_back(*r.out);
    if (r.injected && counts) t.fires.push_back(at);
  };
  for (const auto& step : steps) {
    if (step.strobe) {
      inj.inject_now();
      continue;
    }
    for (std::size_t g = 0; g < step.gap; ++g) {
      record(inj.clock(std::nullopt), 0, false);
    }
    for (const auto s : step.burst) {
      record(inj.clock(s), offset, true);
      ++offset;
    }
  }
  // Drain tail: idle clocks until no payload remains.
  while (inj.pending_payload()) record(inj.clock(std::nullopt), 0, false);
  t.stats = inj.stats();
  t.window_data = inj.window_data();
  t.window_ctl = inj.window_ctl();
  t.occupancy = inj.occupancy();
  return t;
}

/// Batched semantics: clock_burst() per burst, clock(nullopt) per idle.
Trace run_batched(FifoInjector& inj, const std::vector<Step>& steps) {
  Trace t;
  FifoInjector::BatchResult batch;
  std::uint64_t offset = 0;
  for (const auto& step : steps) {
    if (step.strobe) {
      inj.inject_now();
      continue;
    }
    for (std::size_t g = 0; g < step.gap; ++g) {
      const auto r = inj.clock(std::nullopt);
      if (r.out) t.out.push_back(*r.out);
    }
    inj.clock_burst(step.burst, batch);
    t.out.insert(t.out.end(), batch.out.begin(), batch.out.end());
    for (const auto f : batch.fires) t.fires.push_back(offset + f);
    offset += step.burst.size();
  }
  while (inj.pending_payload()) {
    const auto r = inj.clock(std::nullopt);
    if (r.out) t.out.push_back(*r.out);
  }
  t.stats = inj.stats();
  t.window_data = inj.window_data();
  t.window_ctl = inj.window_ctl();
  t.occupancy = inj.occupancy();
  return t;
}

void expect_equivalent(const Trace& a, const Trace& b, std::uint64_t seed) {
  EXPECT_EQ(a.out, b.out) << "seed " << seed;
  EXPECT_EQ(a.fires, b.fires) << "seed " << seed;
  EXPECT_EQ(a.stats.characters, b.stats.characters) << "seed " << seed;
  EXPECT_EQ(a.stats.matches, b.stats.matches) << "seed " << seed;
  EXPECT_EQ(a.stats.injections, b.stats.injections) << "seed " << seed;
  EXPECT_EQ(a.stats.forced, b.stats.forced) << "seed " << seed;
  EXPECT_EQ(a.window_data, b.window_data) << "seed " << seed;
  EXPECT_EQ(a.window_ctl, b.window_ctl) << "seed " << seed;
  EXPECT_EQ(a.occupancy, b.occupancy) << "seed " << seed;
}

InjectorConfig random_config(std::mt19937& rng) {
  InjectorConfig cfg;
  switch (rng() % 4) {
    case 0: cfg.match_mode = MatchMode::kOff; break;
    case 1: cfg.match_mode = MatchMode::kOn; break;
    default: cfg.match_mode = MatchMode::kOnce; break;
  }
  cfg.corrupt_mode = rng() % 2 == 0 ? CorruptMode::kToggle
                                    : CorruptMode::kReplace;
  // Sparse compare masks so matches happen but not on every character.
  cfg.compare_data = static_cast<std::uint32_t>(rng());
  cfg.compare_mask = rng() % 3 == 0 ? 0u : (0xFFu << (8 * (rng() % 4)));
  cfg.compare_ctl = static_cast<std::uint8_t>(rng() & 0x0F);
  cfg.compare_ctl_mask = static_cast<std::uint8_t>(rng() & 0x0F);
  cfg.corrupt_data = static_cast<std::uint32_t>(rng());
  cfg.corrupt_mask = static_cast<std::uint32_t>(rng());
  cfg.corrupt_ctl = static_cast<std::uint8_t>(rng() & 0x0F);
  cfg.corrupt_ctl_mask = static_cast<std::uint8_t>(rng() & 0x0F);
  cfg.compare_stride = static_cast<std::uint8_t>(1 + rng() % 4);
  cfg.lfsr_mask = rng() % 3 == 0 ? static_cast<std::uint16_t>(rng() & 0x7)
                                 : 0;
  return cfg;
}

TEST(BatchPipelineProperty, ClockBurstEquivalentToPerCharacter) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    FifoInjector::Params params;
    params.latency_chars = 4 + rng() % 24;
    params.fifo_capacity = params.latency_chars + 1 + rng() % 64;
    const InjectorConfig cfg = random_config(rng);
    const auto steps = random_schedule(rng);

    FifoInjector reference(params);
    FifoInjector batched(params);
    reference.config() = cfg;
    batched.config() = cfg;

    const Trace a = run_per_char(reference, steps);
    const Trace b = run_batched(batched, steps);
    expect_equivalent(a, b, seed);
  }
}

TEST(BatchPipelineProperty, FastTierDefaultConfigPassthrough) {
  // The default configuration (kOff, all-don't-care compare, LFSR off) is
  // exactly the fast tier; pin that it reproduces per-character passthrough
  // including the drain tail and window registers.
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    auto steps = random_schedule(rng);
    // Drop inject-now strobes: a pending strobe arms the general tier.
    for (auto& step : steps) step.strobe = false;
    FifoInjector reference;
    FifoInjector batched;
    const Trace a = run_per_char(reference, steps);
    const Trace b = run_batched(batched, steps);
    expect_equivalent(a, b, seed);
    EXPECT_EQ(a.stats.injections, 0u);
  }
}

TEST(BatchPipelineProperty, ForcedInjectNowFiresOnFirstBurstCharacter) {
  FifoInjector::Params params;
  params.latency_chars = 4;
  params.fifo_capacity = 16;
  FifoInjector inj(params);
  inj.inject_now();
  std::vector<Symbol> burst(8, link::data_symbol(0x55));
  FifoInjector::BatchResult batch;
  inj.clock_burst(burst, batch);
  ASSERT_EQ(batch.fires.size(), 1u);
  EXPECT_EQ(batch.fires[0], 0u);
  EXPECT_EQ(inj.stats().forced, 1u);
  EXPECT_EQ(inj.stats().injections, 1u);
}

// ---------------------------------------------------------------------------
// Ring-buffer capacity regression.

TEST(FifoRingTest, TightestLegalCapacityNeverOverflows) {
  // fifo_capacity = latency + 1 is the tightest the constructor allows;
  // steady-state occupancy must stay pinned at latency with pops keeping
  // pace, across bursts far larger than the ring.
  FifoInjector::Params params;
  params.latency_chars = 4;
  params.fifo_capacity = 5;
  FifoInjector inj(params);

  std::vector<Symbol> burst;
  for (int i = 0; i < 1000; ++i) {
    burst.push_back(link::data_symbol(static_cast<std::uint8_t>(i)));
  }
  FifoInjector::BatchResult batch;
  inj.clock_burst(burst, batch);
  EXPECT_EQ(inj.occupancy(), params.latency_chars);
  ASSERT_EQ(batch.out.size(), burst.size() - params.latency_chars);
  // FIFO order: output is the input delayed by latency characters.
  for (std::size_t i = 0; i < batch.out.size(); ++i) {
    EXPECT_EQ(batch.out[i], burst[i]) << "at " << i;
  }

  // Same bound through the per-character path.
  FifoInjector inj2(params);
  for (const auto s : burst) (void)inj2.clock(s);
  EXPECT_EQ(inj2.occupancy(), params.latency_chars);
}

TEST(FifoRingTest, OccupancySurvivesWrapAround) {
  // Head wraps the fixed storage many times over; occupancy and FIFO order
  // must be indifferent to where the window physically sits.
  FifoInjector::Params params;
  params.latency_chars = 6;
  params.fifo_capacity = 8;
  FifoInjector inj(params);
  std::vector<Symbol> expect_delayed;
  for (int round = 0; round < 50; ++round) {
    std::vector<Symbol> burst;
    for (int i = 0; i < 7; ++i) {
      burst.push_back(
          link::data_symbol(static_cast<std::uint8_t>(round * 7 + i)));
    }
    FifoInjector::BatchResult batch;
    inj.clock_burst(burst, batch);
    for (const auto s : batch.out) expect_delayed.push_back(s);
    EXPECT_LE(inj.occupancy(), params.latency_chars);
  }
  // Everything popped so far is the stream delayed by latency.
  for (std::size_t i = 0; i < expect_delayed.size(); ++i) {
    EXPECT_EQ(expect_delayed[i].data, static_cast<std::uint8_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Burst control scan.

TEST(BurstTest, FindNextControlStopsAtEachControlSymbol) {
  link::Burst burst;
  for (int i = 0; i < 200; ++i) {
    burst.symbols.push_back(Symbol{0x42, i == 0 || i == 63 || i == 64 ||
                                             i == 130 || i == 199});
  }
  EXPECT_EQ(link::find_next_control(burst, 0), 0u);
  EXPECT_EQ(link::find_next_control(burst, 1), 63u);
  EXPECT_EQ(link::find_next_control(burst, 64), 64u);
  EXPECT_EQ(link::find_next_control(burst, 65), 130u);
  EXPECT_EQ(link::find_next_control(burst, 131), 199u);
  EXPECT_EQ(link::find_next_control(burst, 200), 200u);

  link::Burst all_data;
  all_data.symbols.assign(100, Symbol{0x11, false});
  EXPECT_EQ(link::find_next_control(all_data, 0), 100u);
}

// ---------------------------------------------------------------------------
// FcSerdes reusable-buffer overloads.

TEST(SerdesPoolTest, EncodeIntoReusesStorageAndMatchesAllocating) {
  fc::FcFrame frame;
  frame.payload.assign(256, 0x5A);
  std::vector<Symbol> symbols;
  fc::frame_to_symbols_into(frame, symbols);
  EXPECT_EQ(symbols, fc::frame_to_symbols(frame));

  phy::FcWireStream scratch;
  phy::FcSerdes::encode_into(symbols, scratch);
  const auto fresh = phy::FcSerdes::encode(symbols);
  EXPECT_EQ(scratch.groups, fresh.groups);
  EXPECT_EQ(scratch.initial_rd, fresh.initial_rd);

  // Second encode into the same stream: same result, no regrow needed.
  const auto* before = scratch.groups.data();
  const auto cap = scratch.groups.capacity();
  phy::FcSerdes::encode_into(symbols, scratch);
  EXPECT_EQ(scratch.groups, fresh.groups);
  EXPECT_EQ(scratch.groups.data(), before);
  EXPECT_EQ(scratch.groups.capacity(), cap);

  phy::FcDecodedStream decoded;
  phy::FcSerdes::decode_into(scratch, decoded);
  const auto fresh_dec = phy::FcSerdes::decode(scratch);
  EXPECT_EQ(decoded.symbols, fresh_dec.symbols);
  EXPECT_EQ(decoded.code_violations, fresh_dec.code_violations);
  EXPECT_EQ(decoded.disparity_errors, fresh_dec.disparity_errors);

  // Reused decode stream must reset its error counters.
  phy::FcWireStream corrupted = scratch;
  phy::flip_wire_bit(corrupted, 5, 2);
  phy::FcSerdes::decode_into(corrupted, decoded);
  const auto corrupt_dec = phy::FcSerdes::decode(corrupted);
  EXPECT_EQ(decoded.symbols, corrupt_dec.symbols);
  EXPECT_EQ(decoded.code_violations, corrupt_dec.code_violations);
  EXPECT_EQ(decoded.disparity_errors, corrupt_dec.disparity_errors);
  phy::FcSerdes::decode_into(scratch, decoded);
  EXPECT_EQ(decoded.code_violations, 0u);
  EXPECT_EQ(decoded.disparity_errors, 0u);
}

}  // namespace
}  // namespace hsfi::core
