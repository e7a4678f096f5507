// Fibre Channel substrate tests: exhaustive 8b/10b properties
// (parameterized over the whole code space), CRC-32, frame codec, ordered
// sets, BB-credit flow control, and wire-level fault behavior through the
// serdes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "burst_split.hpp"
#include "fc/crc32.hpp"
#include "fc/enc8b10b.hpp"
#include "fc/frame.hpp"
#include "fc/port.hpp"
#include "link/channel.hpp"
#include "phy/serdes.hpp"
#include "sim/simulator.hpp"

namespace hsfi::fc {
namespace {

// ---------------------------------------------------------------- 8b/10b

/// (value, is_k, entering disparity) sweep over every encodable character.
using CodePoint = std::tuple<int, bool, bool>;  // value, k, rd_minus

class Enc8b10bSweep : public ::testing::TestWithParam<CodePoint> {};

bool is_encodable(int value, bool k) {
  if (!k) return true;
  const int x = value & 0x1F;
  const int y = value >> 5;
  if (x == 28) return true;
  return y == 7 && (x == 23 || x == 27 || x == 29 || x == 30);
}

TEST_P(Enc8b10bSweep, RoundTripsAndKeepsDisparityLegal) {
  const auto [value, k, minus] = GetParam();
  const Char8 c{static_cast<std::uint8_t>(value), k};
  const Disparity rd = minus ? Disparity::kMinus : Disparity::kPlus;
  const auto enc = encode_8b10b(c, rd);
  if (!is_encodable(value, k)) {
    EXPECT_FALSE(enc.has_value());
    return;
  }
  ASSERT_TRUE(enc.has_value());
  // 10-bit groups carry 4, 5, or 6 ones — never worse.
  const int ones = std::popcount(static_cast<unsigned>(enc->code));
  EXPECT_GE(ones, 4);
  EXPECT_LE(ones, 6);
  // Neutral groups keep RD; unbalanced groups flip it toward balance.
  if (ones == 5) {
    EXPECT_EQ(enc->rd, rd);
  } else if (ones == 6) {
    EXPECT_EQ(rd, Disparity::kMinus);  // only legal from RD-
    EXPECT_EQ(enc->rd, Disparity::kPlus);
  } else {
    EXPECT_EQ(rd, Disparity::kPlus);
    EXPECT_EQ(enc->rd, Disparity::kMinus);
  }
  // Decode inverts encode under the same entering disparity.
  const auto dec = decode_8b10b(enc->code, rd);
  EXPECT_FALSE(dec.code_violation);
  EXPECT_FALSE(dec.disparity_error);
  EXPECT_EQ(dec.character, c);
  EXPECT_EQ(dec.rd, enc->rd);
}

INSTANTIATE_TEST_SUITE_P(
    AllCharacters, Enc8b10bSweep,
    ::testing::Combine(::testing::Range(0, 256), ::testing::Bool(),
                       ::testing::Bool()));

TEST(Enc8b10bTest, K285IsTheCommaCharacter) {
  const auto minus = encode_8b10b(K(28, 5), Disparity::kMinus);
  const auto plus = encode_8b10b(K(28, 5), Disparity::kPlus);
  ASSERT_TRUE(minus && plus);
  EXPECT_EQ(minus->code, 0b0011111010);
  EXPECT_EQ(plus->code, 0b1100000101);
}

TEST(Enc8b10bTest, EncodingsUniquePerDisparity) {
  for (const bool minus : {true, false}) {
    std::set<std::uint16_t> seen;
    const Disparity rd = minus ? Disparity::kMinus : Disparity::kPlus;
    for (int v = 0; v < 256; ++v) {
      for (const bool k : {false, true}) {
        if (!is_encodable(v, k)) continue;
        const auto enc = encode_8b10b(Char8{static_cast<std::uint8_t>(v), k}, rd);
        ASSERT_TRUE(enc.has_value());
        EXPECT_TRUE(seen.insert(enc->code).second)
            << "duplicate code for value " << v << " k=" << k;
      }
    }
  }
}

TEST(Enc8b10bTest, LongStreamDisparityStaysBounded) {
  // Encode every byte value in sequence; running disparity must remain
  // +-1 between characters by construction.
  Disparity rd = Disparity::kMinus;
  int balance = 0;
  for (int round = 0; round < 4; ++round) {
    for (int v = 0; v < 256; ++v) {
      const auto enc = encode_8b10b(D(static_cast<std::uint8_t>(v & 0x1F),
                                      static_cast<std::uint8_t>((v >> 5) & 7)),
                                    rd);
      ASSERT_TRUE(enc.has_value());
      balance += 2 * std::popcount(static_cast<unsigned>(enc->code)) - 10;
      EXPECT_LE(std::abs(balance), 2);
      rd = enc->rd;
    }
  }
}

TEST(Enc8b10bTest, InvalidGroupIsViolation) {
  // 0b1111111111 is not a legal group under either disparity.
  const auto dec = decode_8b10b(0x3FF, Disparity::kMinus);
  EXPECT_TRUE(dec.code_violation);
}

TEST(Enc8b10bTest, WrongDisparityDetected) {
  // D.00 RD- group received while RD is plus: decodable but flagged.
  const auto enc = encode_8b10b(D(0, 0), Disparity::kMinus);
  ASSERT_TRUE(enc.has_value());
  const auto dec = decode_8b10b(enc->code, Disparity::kPlus);
  EXPECT_FALSE(dec.code_violation);
  EXPECT_TRUE(dec.disparity_error);
  EXPECT_EQ(dec.character, D(0, 0));
}

// ---------------------------------------------------------------- CRC-32

TEST(Crc32Test, KnownVector) {
  const std::vector<std::uint8_t> msg = {'1', '2', '3', '4', '5',
                                         '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);
}

/// The byte-at-a-time definition the sliced span update must agree with.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  Crc32 c;
  for (const auto b : bytes) c.update(b);
  return c.value();
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  // Every length up to 2,200 bytes (past the largest frame body, 2,136)
  // at every start offset modulo 8, whole and split in two at a random
  // point, against the byte-at-a-time definition.
  constexpr std::size_t kMaxLen = 2200;
  std::mt19937 rng(0xC3C32u);
  std::vector<std::uint8_t> buffer(kMaxLen + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> msg(buffer.data() + offset, len);
      const std::uint32_t want = crc32_bytewise(msg);
      ASSERT_EQ(crc32(msg), want) << "offset " << offset << " length " << len;
      const std::size_t split =
          std::uniform_int_distribution<std::size_t>(0, len)(rng);
      Crc32 inc;
      inc.update(msg.first(split));
      inc.update(msg.subspan(split));
      ASSERT_EQ(inc.value(), want)
          << "offset " << offset << " length " << len << " split " << split;
    }
  }
}

TEST(Crc32Test, DetectsBitFlips) {
  // Every single-bit error in an fc_grid-sized body (24-byte header plus
  // a 128-byte chunk) changes the CRC, and the sliced CRC of each
  // corrupted body still equals the byte-at-a-time one.
  FcHeader h;
  h.d_id = 0x000002;
  h.s_id = 0x000001;
  h.seq_cnt = 3;
  const auto header = encode_header(h);
  std::vector<std::uint8_t> body(header.begin(), header.end());
  body.resize(kFcHeaderSize + 128, 0x5A);
  ASSERT_EQ(body.size(), 152u);  // 1,216 single-bit flips
  const std::uint32_t good = crc32(body);
  ASSERT_EQ(good, crc32_bytewise(body));
  for (std::size_t bit = 0; bit < body.size() * 8; ++bit) {
    body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const std::uint32_t bad = crc32(body);
    EXPECT_NE(bad, good) << "bit " << bit;
    EXPECT_EQ(bad, crc32_bytewise(body)) << "bit " << bit;
    body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------- frames

TEST(FcFrameTest, HeaderRoundTrip) {
  FcHeader h;
  h.r_ctl = 0x22;
  h.d_id = 0x010203;
  h.s_id = 0x040506;
  h.type = 0x08;  // SCSI-FCP style
  h.f_ctl = 0x090A0B;
  h.seq_id = 0x10;
  h.seq_cnt = 0x1234;
  h.ox_id = 0x5678;
  h.rx_id = 0x9ABC;
  h.parameter = 0xDEADBEEF;
  const auto wire = encode_header(h);
  ASSERT_EQ(wire.size(), kFcHeaderSize);
  const auto parsed = parse_header(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(FcFrameTest, FrameSymbolsRoundTrip) {
  // Seeded random frames, payloads of 0 to 2,112 bytes, every SOF/EOF
  // pair: SOF(4) + header(24) + payload + CRC(4) + EOF(4) on the wire, the
  // CRC equal to a byte-at-a-time CRC of header || payload, and the body
  // parsing back to the same header and payload. Serializing into one
  // reused buffer checks that a shorter frame leaves no stale symbols.
  std::mt19937 rng(0xF7A3Eu);
  const auto draw = [&rng](std::uint32_t bits) {
    return static_cast<std::uint32_t>(rng() & ((1ull << bits) - 1));
  };
  std::vector<link::Symbol> reused;
  for (const auto sof : {OrderedSet::kSofI3, OrderedSet::kSofN3}) {
    for (const auto eof : {OrderedSet::kEofN, OrderedSet::kEofT}) {
      for (int n = 0; n < 40; ++n) {
        FcFrame f;
        f.sof = sof;
        f.eof = eof;
        FcHeader& h = f.header;
        h.r_ctl = static_cast<std::uint8_t>(draw(8));
        h.d_id = draw(24);
        h.cs_ctl = static_cast<std::uint8_t>(draw(8));
        h.s_id = draw(24);
        h.type = static_cast<std::uint8_t>(draw(8));
        h.f_ctl = draw(24);
        h.seq_id = static_cast<std::uint8_t>(draw(8));
        h.df_ctl = static_cast<std::uint8_t>(draw(8));
        h.seq_cnt = static_cast<std::uint16_t>(draw(16));
        h.ox_id = static_cast<std::uint16_t>(draw(16));
        h.rx_id = static_cast<std::uint16_t>(draw(16));
        h.parameter = draw(32);
        const std::size_t size =
            n == 0 ? 0
            : n == 1 ? kFcMaxPayload
                     : std::uniform_int_distribution<std::size_t>(
                           0, kFcMaxPayload)(rng);
        f.payload.resize(size);
        for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());

        const auto symbols = frame_to_symbols(f);
        ASSERT_EQ(symbols.size(), 4 + kFcHeaderSize + size + 4 + 4);
        frame_to_symbols_into(f, reused);
        ASSERT_EQ(reused, symbols);
        const auto sof_symbols = ordered_set_symbol_array(sof);
        const auto eof_symbols = ordered_set_symbol_array(eof);
        EXPECT_TRUE(std::equal(sof_symbols.begin(), sof_symbols.end(),
                               symbols.begin()));
        EXPECT_TRUE(std::equal(eof_symbols.begin(), eof_symbols.end(),
                               symbols.end() - 4));
        // Body excludes the ordered sets.
        std::vector<std::uint8_t> body;
        for (std::size_t i = 4; i < symbols.size() - 4; ++i) {
          ASSERT_FALSE(symbols[i].control);
          body.push_back(symbols[i].data);
        }
        const auto header = encode_header(h);
        std::vector<std::uint8_t> covered(header.begin(), header.end());
        covered.insert(covered.end(), f.payload.begin(), f.payload.end());
        const std::uint32_t want = crc32_bytewise(covered);
        const std::uint32_t wire =
            static_cast<std::uint32_t>(body[body.size() - 4]) << 24 |
            static_cast<std::uint32_t>(body[body.size() - 3]) << 16 |
            static_cast<std::uint32_t>(body[body.size() - 2]) << 8 |
            body[body.size() - 1];
        EXPECT_EQ(wire, want) << "payload " << size;
        const auto parsed = parse_frame_body(body);
        ASSERT_EQ(parsed.status, FcParseStatus::kOk);
        EXPECT_EQ(parsed.frame.header, h);
        EXPECT_EQ(parsed.frame.payload, f.payload);
      }
    }
  }
}

TEST(FcFrameTest, CorruptedBodyFailsCrc) {
  FcFrame f;
  f.payload = {9, 9, 9, 9};
  const auto symbols = frame_to_symbols(f);
  std::vector<std::uint8_t> body;
  for (std::size_t i = 4; i < symbols.size() - 4; ++i) {
    body.push_back(symbols[i].data);
  }
  body[26] ^= 0x01;  // payload corruption
  EXPECT_EQ(parse_frame_body(body).status, FcParseStatus::kCrcError);
}

TEST(FcFrameTest, OrderedSetsDistinctAndParseable) {
  const OrderedSet all[] = {OrderedSet::kIdle,  OrderedSet::kRRdy,
                            OrderedSet::kSofI3, OrderedSet::kSofN3,
                            OrderedSet::kEofN,  OrderedSet::kEofT};
  std::set<std::uint64_t> seen;
  for (const auto os : all) {
    const auto chars = ordered_set_chars(os);
    EXPECT_EQ(chars[0], K(28, 5));
    std::uint64_t key = 0;
    for (const auto c : chars) key = (key << 9) | (c.value | (c.is_k << 8));
    EXPECT_TRUE(seen.insert(key).second);
    const auto parsed =
        parse_ordered_set(std::span<const Char8, 4>(chars.data(), 4));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, os);
  }
}

// ---------------------------------------------------------------- ports

struct FcPair {
  sim::Simulator sim;
  link::DuplexLink cable{sim, "fc", sim::picoseconds(9'412),
                         sim::nanoseconds(5)};
  FcPort a;
  FcPort b;
  std::vector<FcFrame> at_b;
  std::vector<FcFrame> at_a;

  explicit FcPair(FcPort::Config config = {})
      : a(sim, "a", config), b(sim, "b", config) {
    a.attach(cable.b_to_a(), cable.a_to_b());
    b.attach(cable.a_to_b(), cable.b_to_a());
    a.on_frame([this](FcFrame f, sim::SimTime) { at_a.push_back(std::move(f)); });
    b.on_frame([this](FcFrame f, sim::SimTime) { at_b.push_back(std::move(f)); });
  }

  static FcFrame frame(std::uint8_t tag, std::size_t size = 64) {
    FcFrame f;
    f.header.d_id = 2;
    f.header.s_id = 1;
    f.header.seq_cnt = tag;
    f.payload.assign(size, tag);
    return f;
  }
};

TEST(FcPortTest, DeliversFramesInOrder) {
  FcPair net;
  for (std::uint8_t i = 0; i < 20; ++i) net.a.send(FcPair::frame(i));
  net.sim.run();
  ASSERT_EQ(net.at_b.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(net.at_b[i].header.seq_cnt, i);
    EXPECT_EQ(net.at_b[i].payload[0], i);
  }
  EXPECT_EQ(net.b.stats().crc_errors, 0u);
}

TEST(FcPortTest, CreditLimitsOutstandingFrames) {
  FcPort::Config pc;
  pc.bb_credit = 2;
  pc.rx_buffers = 2;
  pc.rx_processing_time = sim::microseconds(50);  // slow receiver
  FcPair net(pc);
  for (std::uint8_t i = 0; i < 12; ++i) net.a.send(FcPair::frame(i));
  net.sim.run();
  // Credit gating: every frame still arrives, nothing overruns the two
  // receive buffers, and the sender observed at least one stall.
  EXPECT_EQ(net.at_b.size(), 12u);
  EXPECT_EQ(net.b.stats().rx_overflows, 0u);
  EXPECT_GT(net.a.stats().credit_stall_events, 0u);
  EXPECT_EQ(net.b.stats().rrdy_sent, 12u);
  EXPECT_EQ(net.a.stats().rrdy_received, 12u);
}

TEST(FcPortTest, FullDuplexTrafficIndependent) {
  FcPair net;
  for (std::uint8_t i = 0; i < 10; ++i) {
    net.a.send(FcPair::frame(i));
    net.b.send(FcPair::frame(static_cast<std::uint8_t>(100 + i)));
  }
  net.sim.run();
  EXPECT_EQ(net.at_b.size(), 10u);
  EXPECT_EQ(net.at_a.size(), 10u);
}

/// Everything a receiving port reports for one stream: delivered frames
/// (re-serialized, so delimiters and CRC compare too) and their delivery
/// times, timestamped events, and the final stats.
struct FcRxLog {
  std::vector<std::pair<std::vector<link::Symbol>, sim::SimTime>> frames;
  std::vector<std::pair<FcPort::Event, sim::SimTime>> events;
  std::vector<std::uint64_t> stats;
  bool operator==(const FcRxLog&) const = default;
};

/// Feeds `stream` to a fresh receive-only port in consecutive bursts of the
/// sizes `next_size()` returns, all before the simulator runs (so delivery
/// times cannot depend on the split), then drains it.
template <typename NextSize>
FcRxLog receive_in_bursts(const std::vector<link::Symbol>& stream,
                          NextSize next_size) {
  constexpr sim::Duration kPeriod = sim::picoseconds(9'412);
  sim::Simulator simulator;
  FcPort::Config config;
  config.rx_buffers = 6;
  FcPort port(simulator, "rx", config);
  FcRxLog log;
  port.on_frame([&log](FcFrame f, sim::SimTime when) {
    log.frames.emplace_back(frame_to_symbols(f), when);
  });
  port.on_event([&log](FcPort::Event e, sim::SimTime when) {
    log.events.emplace_back(e, when);
  });
  testutil::split_into_bursts(
      stream, kPeriod, next_size,
      [&port](const link::Burst& burst) { port.on_burst(burst); });
  simulator.run();
  const auto& st = port.stats();
  log.stats = {st.frames_sent,       st.frames_received,
               st.crc_errors,        st.rrdy_sent,
               st.rrdy_received,     st.credit_stall_events,
               st.credit_recoveries, st.rx_overflows,
               st.malformed_sets,    st.stray_data,
               st.tx_queue_drops};
  return log;
}

TEST(FcPortTest, BurstSplitsDoNotChangeFramesEventsOrStats) {
  // Good and CRC-corrupted frames, R_RDYs and IDLEs, K28.5 sets that parse
  // to nothing, truncated frames and stray data, received as one burst, as
  // one-symbol bursts and in random splits.
  std::mt19937 rng(5);
  std::vector<link::Symbol> stream;
  const auto append = [&stream](const auto& more) {
    stream.insert(stream.end(), more.begin(), more.end());
  };
  for (int k = 0; k < 120; ++k) {
    switch (rng() % 6) {
      case 0:
      case 1:
        append(frame_to_symbols(
            FcPair::frame(static_cast<std::uint8_t>(k), 1 + rng() % 300)));
        for (std::size_t n = rng() % 3; n > 0; --n) {  // stray after EOF
          stream.push_back(link::data_symbol(static_cast<std::uint8_t>(rng())));
        }
        break;
      case 2: {
        auto symbols = frame_to_symbols(FcPair::frame(7, 40));
        symbols[4 + rng() % 60].data ^= 0x04;  // body byte: CRC error
        append(symbols);
        break;
      }
      case 3:
        append(ordered_set_symbol_array(rng() % 2 == 0 ? OrderedSet::kRRdy
                                                       : OrderedSet::kIdle));
        break;
      case 4: {
        auto set = ordered_set_symbol_array(OrderedSet::kEofT);
        set[1] = link::data_symbol(static_cast<std::uint8_t>(rng()));
        append(set);  // K28.5-led set that parses to nothing
        break;
      }
      default: {
        auto symbols = frame_to_symbols(FcPair::frame(9, 100));
        symbols.resize(4 + rng() % 100);  // truncated: no EOF
        append(symbols);
        for (std::size_t n = rng() % 20; n > 0; --n) {
          stream.push_back(link::data_symbol(static_cast<std::uint8_t>(rng())));
        }
        break;
      }
    }
  }
  const auto whole = receive_in_bursts(stream, [&stream] { return stream.size(); });
  const auto singles = receive_in_bursts(stream, [] { return std::size_t{1}; });
  const auto random = receive_in_bursts(stream, [&rng] { return 1 + rng() % 90; });
  EXPECT_EQ(singles, whole);
  EXPECT_EQ(random, whole);
  // The stream reaches every receive path the comparison covers.
  EXPECT_GT(whole.frames.size(), 0u);
  const auto seen = [&whole](FcPort::Event e) {
    return std::count_if(whole.events.begin(), whole.events.end(),
                         [e](const auto& ev) { return ev.first == e; });
  };
  EXPECT_GT(seen(FcPort::Event::kCrcError), 0);
  EXPECT_GT(seen(FcPort::Event::kMalformedSet), 0);
  EXPECT_GT(seen(FcPort::Event::kStrayData), 0);
  EXPECT_GT(seen(FcPort::Event::kRxOverflow), 0);
}

// ------------------------------------------------------------- serdes

TEST(FcSerdesTest, WireRoundTripIsIdentity) {
  FcFrame f = FcPair::frame(7, 32);
  const auto symbols = frame_to_symbols(f);
  const auto wire = phy::FcSerdes::encode(symbols);
  EXPECT_EQ(wire.groups.size(), symbols.size());
  const auto decoded = phy::FcSerdes::decode(wire);
  EXPECT_EQ(decoded.code_violations, 0u);
  EXPECT_EQ(decoded.disparity_errors, 0u);
  ASSERT_EQ(decoded.symbols.size(), symbols.size());
  EXPECT_TRUE(std::equal(symbols.begin(), symbols.end(),
                         decoded.symbols.begin()));
}

TEST(FcSerdesTest, WireBitFlipSurfacesAsCodeOrDisparityError) {
  // Sweep a single-bit fault across a stretch of wire; 8b/10b must flag
  // every one as a code violation, a disparity error, or (at worst) decode
  // to a different character — it can never vanish silently AND corrupt
  // nothing. Count how the error surface distributes.
  FcFrame f = FcPair::frame(3, 16);
  const auto symbols = frame_to_symbols(f);
  int detected = 0;
  int miscoded = 0;
  const auto baseline = phy::FcSerdes::encode(symbols);
  for (std::size_t i = 0; i < baseline.groups.size(); ++i) {
    for (unsigned bit = 0; bit < 10; ++bit) {
      auto wire = baseline;
      phy::flip_wire_bit(wire, i, bit);
      const auto decoded = phy::FcSerdes::decode(wire);
      if (decoded.code_violations > 0 || decoded.disparity_errors > 0) {
        ++detected;
      } else {
        ++miscoded;
        EXPECT_FALSE(std::equal(symbols.begin(), symbols.end(),
                                decoded.symbols.begin(),
                                decoded.symbols.end()))
            << "bit flip vanished silently at group " << i << " bit " << bit;
      }
    }
  }
  // The vast majority of single-bit wire faults are detected at the PHY.
  EXPECT_GT(detected, miscoded);
}

}  // namespace
}  // namespace hsfi::fc
