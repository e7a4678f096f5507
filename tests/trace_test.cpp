// Tests for the observation stream's trace points on a testbed: mapping
// rounds and map installs, configuration applications, and long timeouts
// reach a subscriber live, with their where/unit/detail.
#include <gtest/gtest.h>

#include <vector>

#include "nftape/faults.hpp"
#include "nftape/testbed.hpp"
#include "sim/observation.hpp"

namespace hsfi::nftape {
namespace {

using sim::milliseconds;
using sim::Observed;

/// Keeps every observation (its `where` copied) and the simulator's clock
/// at the moment it arrived.
struct Recorder final : sim::Observer {
  struct Entry {
    sim::Observation o;
    std::string where;
    sim::SimTime seen_at = 0;
  };
  const sim::Simulator& clock;
  std::vector<Entry> entries;

  explicit Recorder(const sim::Simulator& simulator) : clock(simulator) {}
  void on_observation(const sim::Observation& o) override {
    entries.push_back({o, std::string(o.where), clock.now()});
  }
  [[nodiscard]] std::vector<Entry> of(Observed kind) const {
    std::vector<Entry> out;
    for (const auto& e : entries) {
      if (e.o.kind == kind) out.push_back(e);
    }
    return out;
  }
};

TEST(TraceTest, MappingRoundsAndConfigAppear) {
  TestbedConfig config;
  config.map_period = milliseconds(20);
  config.map_reply_window = milliseconds(2);
  Testbed bed(config);
  Recorder rec(bed.sim());
  bed.sim().subscribe(rec);
  bed.start();
  bed.settle(milliseconds(80));
  bed.injector().apply(core::Direction::kRightToLeft,
                       udp_word_swap_have_to_veha());
  bed.injector().apply(core::Direction::kLeftToRight,
                       udp_word_swap_have_to_veha());
  bed.settle(milliseconds(5));
  bed.sim().unsubscribe(rec);

  const auto rounds = rec.of(Observed::kMappingRoundBegun);
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(rounds.front().where, "mcp");
  EXPECT_EQ(rounds.front().o.detail, 1u);  // the first round
  const auto installs = rec.of(Observed::kMapInstalled);
  ASSERT_FALSE(installs.empty());
  EXPECT_EQ(installs.back().where, "mcp");
  EXPECT_EQ(installs.back().o.detail, bed.node_count());

  // apply() is observed with its direction as the unit, in call order.
  const auto applied = rec.of(Observed::kInjectorApplied);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0].where, "fi0");
  EXPECT_EQ(applied[0].o.unit, core::index(core::Direction::kRightToLeft));
  EXPECT_EQ(applied[1].o.unit, core::index(core::Direction::kLeftToRight));
  EXPECT_EQ(applied[0].o.when, milliseconds(80));
  const auto text =
      describe(bed.injector().config(core::Direction::kLeftToRight));
  EXPECT_NE(text.find("MODE ON"), std::string::npos);
  EXPECT_NE(text.find("CMPD 48617665"), std::string::npos);
}

TEST(TraceTest, SinkReceivesRecordsLive) {
  TestbedConfig config;
  config.map_period = milliseconds(20);
  Testbed bed(config);
  Recorder rec(bed.sim());
  EXPECT_FALSE(bed.sim().observed());
  bed.sim().subscribe(rec);
  EXPECT_TRUE(bed.sim().observed());
  bed.start();
  bed.settle(milliseconds(80));
  // Each observation arrives while the simulation runs, at its own time:
  // the stream is delivered live, not buffered.
  ASSERT_FALSE(rec.entries.empty());
  for (const auto& e : rec.entries) EXPECT_EQ(e.o.when, e.seen_at);

  // Unsubscribed, it hears nothing more.
  bed.sim().unsubscribe(rec);
  EXPECT_FALSE(bed.sim().observed());
  const auto before = rec.entries.size();
  bed.settle(milliseconds(80));
  EXPECT_EQ(rec.entries.size(), before);
}

TEST(TraceTest, LongTimeoutObservedAtReclaim) {
  // Wedge a path on a raw switch (header byte, no GAP) with a subscriber
  // attached: the reclaim is observed once, with the output port.
  sim::Simulator simr;
  myrinet::Switch::Config sc;
  sc.long_timeout = sim::microseconds(100);
  myrinet::Switch sw(simr, "sw", sc);
  Recorder rec(simr);
  simr.subscribe(rec);
  link::DuplexLink c0(simr, "c0", sim::picoseconds(12'500),
                      sim::nanoseconds(5));
  link::DuplexLink c1(simr, "c1", sim::picoseconds(12'500),
                      sim::nanoseconds(5));
  sw.attach_port(0, c0.a_to_b(), c0.b_to_a());
  sw.attach_port(1, c1.a_to_b(), c1.b_to_a());
  c0.a_to_b().transmit(
      link::data_symbol(myrinet::route_to_host(1)));  // headless
  simr.run_until(sim::milliseconds(1));
  simr.unsubscribe(rec);

  const auto timeouts = rec.of(Observed::kLongTimeout);
  ASSERT_EQ(timeouts.size(), 1u);
  EXPECT_EQ(timeouts[0].where, "sw");
  EXPECT_EQ(timeouts[0].o.unit, 0u);    // the wedged input
  EXPECT_EQ(timeouts[0].o.detail, 1u);  // the output it held
  // The path was claimed when the head arrived (one character plus the
  // cable delay after t = 0) and reclaimed one long timeout later.
  EXPECT_GE(timeouts[0].o.when, sim::microseconds(100));
  EXPECT_LT(timeouts[0].o.when, sim::microseconds(101));
  EXPECT_EQ(sw.port_stats(0).long_timeouts, 1u);
}

}  // namespace
}  // namespace hsfi::nftape
