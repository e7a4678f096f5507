// Property-based tests for the Myrinet substrate: packet/framing round
// trips over a size sweep, CRC hop-rewrite algebra under random corruption,
// exhaustive control-code decoding, slack-buffer invariants (bulk and
// per-symbol pushes alike), and deframer robustness against random noise
// however the stream is split into bursts.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "burst_split.hpp"
#include "link/channel.hpp"
#include "myrinet/control.hpp"
#include "myrinet/crc8.hpp"
#include "myrinet/framing.hpp"
#include "myrinet/packet.hpp"
#include "myrinet/slack_buffer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hsfi::myrinet {
namespace {

// ------------------------------------------------ packet round trips

class PacketSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PacketSizeSweep, SerializeParseRoundTrip) {
  const auto size = static_cast<std::size_t>(GetParam());
  sim::Rng rng(size + 1);
  Packet p;
  p.marker = 0x00;
  p.type = kTypeData;
  p.payload.resize(size);
  for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto bytes = serialize(p);
  const auto parsed = parse_delivered(bytes);
  ASSERT_EQ(parsed.status, DeliveryStatus::kOk) << "size " << size;
  EXPECT_EQ(parsed.payload, p.payload);
}

TEST_P(PacketSizeSweep, FramingRoundTripThroughSymbols) {
  const auto size = static_cast<std::size_t>(GetParam());
  sim::Rng rng(size + 7);
  Packet p;
  p.payload.resize(size);
  for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto bytes = serialize(p);
  const auto symbols = frame_symbols(bytes);

  Deframer d;
  std::vector<std::uint8_t> frame;
  d.on_frame([&frame](std::vector<std::uint8_t> f, sim::SimTime) {
    frame = std::move(f);
  });
  for (const auto s : symbols) d.feed(s, 0);
  EXPECT_EQ(frame, bytes);
}

TEST_P(PacketSizeSweep, AnySingleByteCorruptionDetected) {
  const auto size = static_cast<std::size_t>(GetParam());
  if (size > 64) GTEST_SKIP() << "quadratic check bounded to small packets";
  Packet p;
  p.payload.assign(size, 0x5A);
  const auto bytes = serialize(p);
  sim::Rng rng(size + 13);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    const auto flip = static_cast<std::uint8_t>(1u << rng.below(8));
    bad[i] ^= flip;
    const auto parsed = parse_delivered(bad);
    EXPECT_NE(parsed.status == DeliveryStatus::kOk &&
                  parsed.payload == p.payload,
              true)
        << "undetected corruption at byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketSizeSweep,
                         ::testing::Values(0, 1, 2, 3, 7, 16, 64, 256, 1024,
                                           4000));

// ------------------------------------------------ CRC hop algebra

class CrcHopSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrcHopSweep, MultiHopRewriteStaysCorrectForIntactPackets) {
  // Strip k leading bytes one at a time, patching the CRC at each hop; the
  // final CRC must be correct for the final packet.
  const int hops = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(hops) + 3);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(hops) + 24);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
  std::uint8_t crc = crc8(bytes);
  for (int hop = 0; hop < hops; ++hop) {
    const std::vector<std::uint8_t> stripped(bytes.begin() + 1, bytes.end());
    crc = patch_crc(crc, crc8(bytes), crc8(stripped));
    bytes = stripped;
  }
  EXPECT_EQ(crc, crc8(bytes));
}

TEST_P(CrcHopSweep, MultiHopRewriteNeverMasksAnEarlierCorruption) {
  const int hops = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(hops) + 5);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(hops) + 24);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
  std::uint8_t crc = crc8(bytes);
  // Corrupt a byte that survives all hops, before any hop runs.
  const std::size_t victim =
      static_cast<std::size_t>(hops) +
      rng.below(static_cast<std::uint32_t>(bytes.size()) -
                static_cast<std::uint32_t>(hops));
  bytes[victim] ^= static_cast<std::uint8_t>(1u << rng.below(8));
  for (int hop = 0; hop < hops; ++hop) {
    const std::vector<std::uint8_t> stripped(bytes.begin() + 1, bytes.end());
    crc = patch_crc(crc, crc8(bytes), crc8(stripped));
    bytes = stripped;
  }
  EXPECT_NE(crc, crc8(bytes)) << "corruption masked after " << hops << " hops";
}

INSTANTIATE_TEST_SUITE_P(Hops, CrcHopSweep, ::testing::Range(1, 8));

// ------------------------------------------------ control decode space

TEST(ControlDecodeProperty, ExhaustiveDecodeIsStable) {
  // Every 8-bit code decodes to one of the four symbols or nothing, and
  // re-encoding an exact codeword decodes back to itself.
  int decodable = 0;
  for (int c = 0; c < 256; ++c) {
    const auto d = decode_control(static_cast<std::uint8_t>(c));
    if (d) {
      ++decodable;
      const auto again = decode_control(encoding(*d));
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *d);
    }
  }
  // 4 exact codewords + 8 tolerated single-drop patterns.
  EXPECT_EQ(decodable, 12);
}

// ------------------------------------------------ slack invariants

class SlackSweep : public ::testing::TestWithParam<int> {};

TEST_P(SlackSweep, OccupancyNeverExceedsCapacityAndConserves) {
  sim::Simulator simulator;
  SlackBuffer::Config cfg;
  cfg.capacity = 64;
  cfg.high_watermark = 40;
  cfg.low_watermark = 8;
  int stops = 0;
  int gos = 0;
  SlackBuffer slack(simulator, cfg, [&](ControlSymbol c) {
    if (c == ControlSymbol::kStop) ++stops;
    if (c == ControlSymbol::kGo) ++gos;
  });
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::uint64_t pushed_ok = 0;
  std::uint64_t popped = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.chance(0.55)) {
      if (slack.push(link::data_symbol(static_cast<std::uint8_t>(i)))) {
        ++pushed_ok;
      }
    } else if (slack.pop()) {
      ++popped;
    }
    ASSERT_LE(slack.size(), cfg.capacity);
  }
  EXPECT_EQ(pushed_ok - popped, slack.size());
  // Hysteresis: GO transitions never outnumber STOP transitions by more
  // than zero, and never trail by more than one open STOP episode.
  EXPECT_LE(gos, stops);
}

TEST_P(SlackSweep, FifoOrderPreserved) {
  sim::Simulator simulator;
  SlackBuffer slack(simulator, {}, nullptr);
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 2000; ++i) {
    if (rng.chance(0.6)) {
      const auto b = static_cast<std::uint8_t>(rng.next_u32());
      if (slack.push(link::data_symbol(b))) in.push_back(b);
    } else if (const auto s = slack.pop()) {
      out.push_back(s->data);
    }
  }
  while (const auto s = slack.pop()) out.push_back(s->data);
  EXPECT_EQ(in, out);
}

/// One slack buffer with a probe and a flow sink that record everything it
/// reports, on its own simulator.
struct ProbedSlack {
  struct Sample {
    sim::SimTime when;
    std::size_t occupancy;
    std::optional<ControlSymbol> emitted;
    bool operator==(const Sample&) const = default;
  };

  sim::Simulator simulator;
  std::vector<Sample> samples;
  std::vector<ControlSymbol> flow;
  SlackBuffer slack;

  explicit ProbedSlack(SlackBuffer::Config config)
      : slack(simulator, config,
              [this](ControlSymbol c) { flow.push_back(c); }) {
    slack.set_probe([this](sim::SimTime when, std::size_t occupancy,
                           std::optional<ControlSymbol> emitted) {
      samples.push_back({when, occupancy, emitted});
    });
  }
};

TEST_P(SlackSweep, PushRunWithProbeMatchesPerSymbolPush) {
  // With a probe attached, push_run() must look exactly like one push() per
  // symbol: the same samples, STOP/GO emissions (refreshes included) and
  // drops, across the high watermark and into overflow.
  SlackBuffer::Config cfg;
  cfg.capacity = 64;
  cfg.high_watermark = 40;
  cfg.low_watermark = 8;
  ProbedSlack run(cfg);
  ProbedSlack each(cfg);
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  sim::SimTime now = 0;
  for (int step = 0; step < 400; ++step) {
    now += sim::nanoseconds(rng.below(300));
    run.simulator.run_until(now);
    each.simulator.run_until(now);
    if (rng.chance(0.6)) {
      std::vector<link::Symbol> symbols(1 + rng.below(48));
      for (auto& s : symbols) {
        s = link::data_symbol(static_cast<std::uint8_t>(rng.next_u32()));
      }
      const std::size_t accepted = run.slack.push_run(symbols);
      for (std::size_t j = accepted; j < symbols.size(); ++j) {
        EXPECT_FALSE(run.slack.push(symbols[j]));
      }
      for (const auto s : symbols) each.slack.push(s);
    } else {
      for (std::uint32_t k = rng.below(40); k > 0; --k) {
        (void)run.slack.pop();
        (void)each.slack.pop();
      }
    }
    ASSERT_EQ(run.slack.size(), each.slack.size());
  }
  EXPECT_EQ(run.samples, each.samples);
  EXPECT_EQ(run.flow, each.flow);
  EXPECT_EQ(run.slack.overflow_drops(), each.slack.overflow_drops());
  // The schedule crosses both watermarks and overflows.
  EXPECT_GT(run.slack.overflow_drops(), 0u);
  EXPECT_GT(std::count(run.flow.begin(), run.flow.end(), ControlSymbol::kStop),
            0);
  EXPECT_GT(std::count(run.flow.begin(), run.flow.end(), ControlSymbol::kGo),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlackSweep, ::testing::Range(1, 9));

// ------------------------------------------------ deframer fuzz

class DeframerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DeframerFuzz, RandomSymbolStreamsNeverWedgeAccounting) {
  Deframer d;
  std::uint64_t frame_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t flow = 0;
  d.on_frame([&](std::vector<std::uint8_t> f, sim::SimTime) {
    frames += 1;
    frame_bytes += f.size();
  });
  d.on_flow([&](ControlSymbol, sim::SimTime) { ++flow; });
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) + 41);
  std::uint64_t fed_data = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool control = rng.chance(0.3);
    const auto b = static_cast<std::uint8_t>(rng.next_u32() & 0x1F);
    if (!control) ++fed_data;
    d.feed(link::Symbol{b, control}, i);
  }
  // Conservation: every data byte is either in an emitted frame or still
  // in the open partial frame.
  EXPECT_EQ(fed_data, frame_bytes + d.open_frame_size());
  EXPECT_EQ(frames, d.frames_emitted());
  EXPECT_GT(flow, 0u);
}

/// Everything a deframer reports for one stream.
struct DeframerLog {
  std::vector<std::pair<std::vector<std::uint8_t>, sim::SimTime>> frames;
  std::vector<std::pair<ControlSymbol, sim::SimTime>> flow;
  std::uint64_t frames_emitted = 0;
  std::uint64_t ignored = 0;
  std::size_t open = 0;
  bool operator==(const DeframerLog&) const = default;
};

/// Feeds `stream` to a fresh deframer in consecutive bursts of the sizes
/// `next_size()` returns.
template <typename NextSize>
DeframerLog deframe_in_bursts(const std::vector<link::Symbol>& stream,
                              NextSize next_size) {
  constexpr sim::Duration kPeriod = sim::picoseconds(12'500);
  Deframer d;
  DeframerLog log;
  d.on_frame([&log](std::vector<std::uint8_t> f, sim::SimTime when) {
    log.frames.emplace_back(std::move(f), when);
  });
  d.on_flow([&log](ControlSymbol c, sim::SimTime when) {
    log.flow.emplace_back(c, when);
  });
  testutil::split_into_bursts(
      stream, kPeriod, next_size,
      [&d](const link::Burst& burst) { d.feed_burst(burst); });
  log.frames_emitted = d.frames_emitted();
  log.ignored = d.ignored_control_codes();
  log.open = d.open_frame_size();
  return log;
}

TEST_P(DeframerFuzz, BurstSplitsDoNotChangeFramesFlowOrCounters) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) + 59);
  std::vector<link::Symbol> stream;
  for (int i = 0; i < 20000; ++i) {
    // Long data runs between control symbols, like framed traffic.
    const bool control = rng.chance(0.08);
    stream.push_back(link::Symbol{
        static_cast<std::uint8_t>(rng.next_u32() & 0x1F), control});
  }
  const auto whole = deframe_in_bursts(stream, [&stream] { return stream.size(); });
  const auto singles = deframe_in_bursts(stream, [] { return std::size_t{1}; });
  const auto random =
      deframe_in_bursts(stream, [&rng] { return 1 + rng.below(150); });
  EXPECT_EQ(singles, whole);
  EXPECT_EQ(random, whole);
  EXPECT_GT(whole.frames.size(), 0u);
  EXPECT_GT(whole.flow.size(), 0u);
  EXPECT_GT(whole.ignored, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeframerFuzz, ::testing::Range(1, 7));

}  // namespace
}  // namespace hsfi::myrinet
