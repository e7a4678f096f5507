// StreamStats monitor: frame classification at both link positions (with
// and without a leading route byte) and the per-(dst, src) identifier pair
// counters, including what they report when the payload's address fields
// are corrupted in flight (paper §3.2, §4.3.3). Also pinned: the open-frame
// bound on GAP-less streams, and counts that do not depend on how the
// stream is split into bursts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "burst_split.hpp"
#include "core/stats.hpp"
#include "link/channel.hpp"
#include "myrinet/addr.hpp"
#include "myrinet/control.hpp"
#include "myrinet/framing.hpp"
#include "myrinet/packet.hpp"

namespace hsfi::core {
namespace {

using myrinet::ControlSymbol;
using myrinet::EthAddr;
using myrinet::Packet;

constexpr std::uint64_t kDst = 0x0000AABBCCDDEEFF;
constexpr std::uint64_t kSrc = 0x0000112233445566;
constexpr sim::Duration kPeriod = sim::picoseconds(12'500);

/// Payload carrying the host stack's dst(6) + src(6) identifiers plus one
/// trailing byte so it clears the monitor's minimum-length check.
std::vector<std::uint8_t> addressed_payload(std::uint64_t dst,
                                            std::uint64_t src) {
  std::vector<std::uint8_t> p;
  myrinet::put_eth(p, EthAddr::from_u64(dst));
  myrinet::put_eth(p, EthAddr::from_u64(src));
  p.push_back(0x5A);
  return p;
}

/// Feeds `stream` in consecutive bursts of the sizes `next_size()` returns.
template <typename NextSize>
void feed_in_bursts(StreamStats& stats, const std::vector<link::Symbol>& stream,
                    NextSize next_size) {
  testutil::split_into_bursts(
      stream, kPeriod, next_size,
      [&stats](const link::Burst& burst) { stats.feed_burst(burst); });
}

void feed(StreamStats& stats, const std::vector<link::Symbol>& symbols) {
  feed_in_bursts(stats, symbols, [&symbols] { return symbols.size(); });
}

void feed_frame(StreamStats& stats, const std::vector<std::uint8_t>& bytes) {
  feed(stats, myrinet::frame_symbols(bytes));
}

TEST(StreamStatsTest, ClassifiesDeliveredDataFrameAndCountsPair) {
  StreamStats stats;
  Packet p;  // no route bytes: the shape a destination interface sees
  p.payload = addressed_payload(kDst, kSrc);
  feed_frame(stats, myrinet::serialize(p));

  EXPECT_EQ(stats.counters().frames, 1u);
  EXPECT_EQ(stats.counters().data_frames, 1u);
  EXPECT_EQ(stats.counters().other_frames, 0u);
  ASSERT_EQ(stats.pair_counts().size(), 1u);
  const auto& [key, count] = *stats.pair_counts().begin();
  EXPECT_EQ(key.first, kDst);
  EXPECT_EQ(key.second, kSrc);
  EXPECT_EQ(count, 1u);
}

TEST(StreamStatsTest, RouteByteShiftsTypeFieldButClassificationFollows) {
  // A frame observed before its last switch hop still carries a route
  // byte, shifting every field by one; the monitor must classify by the
  // shifted type and read the identifiers at the shifted offset.
  StreamStats stats;
  Packet p;
  p.route = {myrinet::route_to_host(2)};
  p.payload = addressed_payload(kDst, kSrc);
  feed_frame(stats, myrinet::serialize(p));

  EXPECT_EQ(stats.counters().data_frames, 1u);
  EXPECT_EQ(stats.counters().other_frames, 0u);
  ASSERT_EQ(stats.pair_counts().size(), 1u);
  EXPECT_EQ(stats.pair_counts().begin()->first.first, kDst);
  EXPECT_EQ(stats.pair_counts().begin()->first.second, kSrc);

  // Mapping frames are classified through the same shifted path, and
  // carry no host identifiers.
  Packet m;
  m.route = {myrinet::route_to_switch(5)};
  m.type = myrinet::kTypeMapping;
  m.payload = addressed_payload(kDst, kSrc);
  feed_frame(stats, myrinet::serialize(m));
  EXPECT_EQ(stats.counters().mapping_frames, 1u);
  EXPECT_EQ(stats.pair_counts().size(), 1u);
}

TEST(StreamStatsTest, CorruptedAddressBytesCountUnderTheCorruptedPair) {
  // §4.3.3 address corruption with the injector's CRC repatch: the frame
  // still passes the link CRC, so the monitor attributes it to the
  // (corrupted) identifier pair it actually saw — a new pair entry is the
  // observable signature of address corruption.
  StreamStats stats;
  Packet good;
  good.payload = addressed_payload(kDst, kSrc);
  feed_frame(stats, myrinet::serialize(good));
  feed_frame(stats, myrinet::serialize(good));

  Packet corrupted;
  corrupted.payload = addressed_payload(kDst ^ 0x01, kSrc);  // flipped dst bit
  feed_frame(stats, myrinet::serialize(corrupted));

  EXPECT_EQ(stats.counters().data_frames, 3u);
  ASSERT_EQ(stats.pair_counts().size(), 2u);
  EXPECT_EQ(stats.pair_counts().at({kDst, kSrc}), 2u);
  EXPECT_EQ(stats.pair_counts().at({kDst ^ 0x01, kSrc}), 1u);
}

TEST(StreamStatsTest, CrcBadFrameIsCountedAndExcludedFromPairs) {
  // Without the repatch a corrupted byte fails the CRC: counted as
  // crc-bad, never attributed to an identifier pair.
  StreamStats stats;
  Packet p;
  p.payload = addressed_payload(kDst, kSrc);
  auto bytes = myrinet::serialize(p);
  bytes[5] ^= 0x40;  // corrupt a payload byte, leave the trailing CRC alone
  feed_frame(stats, bytes);

  EXPECT_EQ(stats.counters().frames, 1u);
  EXPECT_EQ(stats.counters().crc_bad_frames, 1u);
  EXPECT_EQ(stats.counters().data_frames, 0u);
  EXPECT_TRUE(stats.pair_counts().empty());
}

TEST(StreamStatsTest, ControlSymbolCountersAndClear) {
  StreamStats stats;
  feed(stats, {myrinet::to_symbol(ControlSymbol::kStop),
               myrinet::to_symbol(ControlSymbol::kGo),
               myrinet::to_symbol(ControlSymbol::kGap)});
  EXPECT_EQ(stats.counters().characters, 3u);
  EXPECT_EQ(stats.counters().control_symbols, 3u);
  EXPECT_EQ(stats.counters().stops, 1u);
  EXPECT_EQ(stats.counters().gos, 1u);
  EXPECT_EQ(stats.counters().gaps, 1u);

  Packet p;
  p.payload = addressed_payload(kDst, kSrc);
  feed_frame(stats, myrinet::serialize(p));
  EXPECT_NE(stats.render().find("packets=1"), std::string::npos);

  stats.clear();
  EXPECT_EQ(stats.counters().characters, 0u);
  EXPECT_TRUE(stats.pair_counts().empty());
}

TEST(StreamStatsTest, GaplessStreamStaysWithinTheOpenFrameBound) {
  // Fibre Channel traffic seen through Myrinet eyes: K28.5 never decodes as
  // a GAP, so the partial frame never closes. The monitor drops it past
  // kMaxOpenFrame, counts it once and holds no more than the bound,
  // whatever the burst sizes.
  constexpr std::size_t kBytes = 1'000'000;
  std::mt19937 rng(17);
  std::vector<link::Symbol> stream(kBytes);
  for (auto& s : stream) s = link::data_symbol(static_cast<std::uint8_t>(rng()));

  for (const std::size_t max_burst : {std::size_t{kBytes}, std::size_t{4096},
                                      std::size_t{64}}) {
    SCOPED_TRACE(max_burst);
    StreamStats stats;
    std::size_t i = 0;
    while (i < kBytes) {
      const std::size_t n = std::min(1 + rng() % max_burst, kBytes - i);
      feed(stats, std::vector<link::Symbol>(
                      stream.begin() + static_cast<std::ptrdiff_t>(i),
                      stream.begin() + static_cast<std::ptrdiff_t>(i + n)));
      ASSERT_LE(stats.open_frame_size(), StreamStats::kMaxOpenFrame);
      i += n;
    }
    EXPECT_EQ(stats.counters().characters, kBytes);
    EXPECT_EQ(stats.counters().frames, 0u);
    EXPECT_EQ(stats.counters().oversize, 1u);

    // The next GAP ends the dropped frame; the frame after it counts.
    feed(stats, {myrinet::to_symbol(ControlSymbol::kGap)});
    Packet p;
    p.payload = addressed_payload(kDst, kSrc);
    feed_frame(stats, myrinet::serialize(p));
    EXPECT_EQ(stats.counters().frames, 1u);
    EXPECT_EQ(stats.counters().data_frames, 1u);
    EXPECT_EQ(stats.counters().oversize, 1u);
    EXPECT_NE(stats.render().find("oversize=1"), std::string::npos);
  }
}

/// A monitored stream with everything the monitor counts: addressed data
/// frames with and without a route byte, CRC-corrupted frames, mapping
/// frames, flow control and IDLE inside and between frames, undecodable
/// control codes, loose data, and one frame on each side of the open-frame
/// bound.
std::vector<link::Symbol> random_monitor_stream(std::mt19937& rng) {
  std::vector<link::Symbol> stream;
  const auto append = [&stream](const std::vector<link::Symbol>& more) {
    stream.insert(stream.end(), more.begin(), more.end());
  };
  const auto gap = myrinet::to_symbol(ControlSymbol::kGap);
  for (int k = 0; k < 300; ++k) {
    switch (rng() % 5) {
      case 0:
      case 1: {
        Packet p;
        if (rng() % 2 == 0) {
          p.route = {myrinet::route_to_host(static_cast<std::uint8_t>(rng() % 4))};
        }
        if (rng() % 5 == 0) p.type = myrinet::kTypeMapping;
        p.payload = addressed_payload(kDst ^ (rng() % 3), kSrc);
        auto bytes = myrinet::serialize(p);
        if (rng() % 4 == 0) bytes[rng() % bytes.size()] ^= 0x10;
        append(myrinet::frame_symbols(bytes));
        break;
      }
      case 2: {
        const ControlSymbol flow[] = {ControlSymbol::kStop, ControlSymbol::kGo,
                                      ControlSymbol::kIdle};
        stream.push_back(myrinet::to_symbol(flow[rng() % 3]));
        break;
      }
      case 3:
        stream.push_back(link::control_symbol(static_cast<std::uint8_t>(rng())));
        break;
      default:
        for (std::size_t n = 1 + rng() % 40; n > 0; --n) {
          stream.push_back(link::data_symbol(static_cast<std::uint8_t>(rng())));
        }
        break;
    }
    if (k == 100 || k == 200) {
      const std::size_t size = StreamStats::kMaxOpenFrame + (k == 200 ? 1 : 0);
      stream.push_back(gap);
      stream.insert(stream.end(), size, link::data_symbol(0x42));
      stream.push_back(gap);
    }
  }
  return stream;
}

TEST(StreamStatsTest, CountsDoNotDependOnBurstSplits) {
  for (const unsigned seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    const auto stream = random_monitor_stream(rng);

    StreamStats whole;
    feed(whole, stream);
    StreamStats singles;
    feed_in_bursts(singles, stream, [] { return std::size_t{1}; });
    StreamStats random;
    feed_in_bursts(random, stream, [&rng] { return 1 + rng() % 200; });

    for (const StreamStats* split : {&singles, &random}) {
      EXPECT_EQ(split->render(), whole.render());
      EXPECT_EQ(split->pair_counts(), whole.pair_counts());
      EXPECT_EQ(split->open_frame_size(), whole.open_frame_size());
    }
    // The stream exercises every counter the comparison covers.
    const auto& c = whole.counters();
    EXPECT_EQ(c.characters, stream.size());
    EXPECT_GT(c.data_frames, 0u);
    EXPECT_GT(c.mapping_frames, 0u);
    EXPECT_GT(c.crc_bad_frames, 0u);
    EXPECT_GT(c.stops, 0u);
    EXPECT_GT(c.gos, 0u);
    EXPECT_EQ(c.oversize, 1u);
    EXPECT_GT(whole.pair_counts().size(), 1u);
  }
}

}  // namespace
}  // namespace hsfi::core
