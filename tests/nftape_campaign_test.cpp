// Tests for the NFTAPE-style campaign runner and report rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/manifestation.hpp"
#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/fc_fabric.hpp"
#include "nftape/report.hpp"
#include "nftape/testbed.hpp"

namespace hsfi::nftape {
namespace {

using myrinet::ControlSymbol;
using sim::microseconds;
using sim::milliseconds;

TestbedConfig campaign_config() {
  TestbedConfig c;
  c.map_period = milliseconds(20);
  c.map_reply_window = milliseconds(2);
  c.nic_config.rx_processing_time = microseconds(10);
  c.send_stack_time = microseconds(2);
  return c;
}

CampaignSpec quick_spec(std::string name) {
  CampaignSpec s;
  s.name = std::move(name);
  s.warmup = milliseconds(10);
  s.duration = milliseconds(200);
  s.drain = milliseconds(10);
  s.workload.udp_interval = microseconds(200);
  s.workload.payload_size = 64;
  return s;
}

TEST(CampaignTest, BaselineRunHasNoLoss) {
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);
  const auto r = runner.run(quick_spec("baseline"));
  EXPECT_GT(r.counters.messages_sent, 1000u);
  // Loss-free up to window-boundary skew (messages sent during warmup may
  // be delivered inside the window and vice versa).
  const auto sent = static_cast<double>(r.counters.messages_sent);
  const auto received = static_cast<double>(r.counters.messages_received);
  EXPECT_NEAR(received, sent, 0.01 * sent) << "baseline must be loss-free";
  EXPECT_EQ(r.counters.injections, 0u);
  EXPECT_DOUBLE_EQ(r.loss_rate(), 0.0);
}

TEST(CampaignTest, GapCorruptionCausesLoss) {
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);

  auto spec = quick_spec("GAP->GO");
  spec.fault_to_switch =
      control_symbol_corruption(ControlSymbol::kGap, ControlSymbol::kGo);
  const auto r = runner.run(spec);
  EXPECT_GT(r.counters.injections, 0u);
  EXPECT_GT(r.loss_rate(), 0.0) << "GAP corruption must lose packets";
  // Merged packets pass the link CRC (appending a CRC-8 to a message
  // leaves the register at zero, so the switch's rewritten CRC checks out
  // for the concatenation) and die at the UDP layer as length/checksum
  // errors instead — same behavior the real network would show.
  EXPECT_GT(r.counters.checksum_drops, 0u) << "merged frames must die at UDP";
}

TEST(CampaignTest, RunsAreRepeatable) {
  // "To ensure the repeatability of the experiments, each campaign began
  // with the network in a known good state."
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);
  auto spec = quick_spec("repeat");
  spec.fault_to_switch =
      control_symbol_corruption(ControlSymbol::kStop, ControlSymbol::kGap);
  const auto r1 = runner.run(spec);
  const auto r2 = runner.run(spec);
  EXPECT_EQ(r1.counters.messages_sent, r2.counters.messages_sent);
  EXPECT_EQ(r1.counters.messages_received, r2.counters.messages_received);
  EXPECT_EQ(r1.counters.injections, r2.counters.injections);
}

TEST(CampaignTest, SerialAndDirectProgrammingAgree) {
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);
  auto spec = quick_spec("serial-vs-direct");
  spec.fault_to_switch =
      control_symbol_corruption(ControlSymbol::kGap, ControlSymbol::kIdle);
  spec.program_via_serial = true;
  const auto serial = runner.run(spec);
  const auto serial_cfg =
      fabric.bed().injector().config(core::Direction::kLeftToRight);
  spec.program_via_serial = false;
  const auto direct = runner.run(spec);
  // The programmed configuration must be byte-identical; the measured
  // outcome may differ slightly because the RS-232 exchange arms the
  // trigger ~20 ms later, changing how much pre-window mapping traffic is
  // exposed to the fault (real campaigns have the same sensitivity).
  EXPECT_EQ(serial_cfg.compare_data,
            fabric.bed()
                .injector()
                .config(core::Direction::kLeftToRight)
                .compare_data);
  EXPECT_GT(serial.counters.injections, 0u);
  EXPECT_GT(direct.counters.injections, 0u);
  EXPECT_NEAR(serial.loss_rate(), direct.loss_rate(), 0.10);
}

TEST(CampaignTest, FaultFreeRunAfterFaultRunIsClean) {
  // The runner must disarm the injector between runs.
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);
  auto faulty = quick_spec("faulty");
  faulty.fault_to_switch =
      control_symbol_corruption(ControlSymbol::kGap, ControlSymbol::kGo);
  (void)runner.run(faulty);
  const auto clean = runner.run(quick_spec("clean"));
  EXPECT_EQ(clean.counters.injections, 0u);
  EXPECT_DOUBLE_EQ(clean.loss_rate(), 0.0);
}

TEST(CampaignTest, ManifestationsAccountForEveryInjection) {
  // Tentpole invariant: each firing is followed downstream and lands in
  // exactly one taxonomy class, so the breakdown sums to the injection
  // count for every campaign — baseline and faulty alike.
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);

  const auto baseline = runner.run(quick_spec("baseline"));
  EXPECT_EQ(baseline.manifestations.total(), baseline.counters.injections);
  EXPECT_EQ(baseline.manifestations.total(), 0u);

  auto spec = quick_spec("GAP->GO");
  spec.fault_to_switch =
      control_symbol_corruption(ControlSymbol::kGap, ControlSymbol::kGo);
  const auto r = runner.run(spec);
  ASSERT_GT(r.counters.injections, 0u);
  EXPECT_EQ(r.manifestations.total(), r.counters.injections);
  // GAP->GO merges frames, which must surface as non-masked effects.
  using analysis::Manifestation;
  EXPECT_LT(r.manifestations[Manifestation::kMasked], r.counters.injections);
  // The firing -> first-effect latencies only exist for matched firings.
  EXPECT_EQ(r.manifestation_latency.count(),
            r.counters.injections - r.manifestations[Manifestation::kMasked]);
}

TEST(CampaignTest, GuardSettlesCountAgainstWatchdogBudget) {
  // The programming/disarm guards are CampaignSpec fields
  // (program_guard / disarm_guard) and their simulated time must flow
  // into the elapsed figure handed to RunControl::should_cancel — a
  // watchdog budget covers the whole run, guards included.
  auto elapsed_with_guards = [](sim::Duration guard) {
    MyrinetFabric fabric(campaign_config());
    fabric.start();
    fabric.settle(milliseconds(60));
    CampaignRunner runner(fabric);
    auto spec = quick_spec("guards");
    spec.duration = milliseconds(50);
    spec.program_guard = guard;
    spec.disarm_guard = guard;
    spec.fault_to_switch =
        control_symbol_corruption(ControlSymbol::kGap, ControlSymbol::kGo);
    sim::Duration max_elapsed = 0;
    RunControl control;
    control.should_cancel = [&max_elapsed](sim::Duration elapsed) {
      if (elapsed > max_elapsed) max_elapsed = elapsed;
      return false;
    };
    (void)runner.run(spec, &control);
    return max_elapsed;
  };

  const sim::Duration base = elapsed_with_guards(milliseconds(30));
  const sim::Duration padded = elapsed_with_guards(milliseconds(130));
  // Two guards, each grown by 100 ms, must surface as >= 200 ms more
  // budgeted time.
  EXPECT_GE(padded - base, milliseconds(200));
}

TEST(CampaignTest, OversizedGuardTripsWatchdog) {
  // A budget generous enough for the default guards must cancel the same
  // run when program_guard alone exceeds it — guards cannot hide from
  // the watchdog.
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);

  auto spec = quick_spec("oversized-guard");
  spec.fault_to_switch =
      control_symbol_corruption(ControlSymbol::kGap, ControlSymbol::kGo);
  RunControl control;
  control.should_cancel = [](sim::Duration elapsed) {
    return elapsed > milliseconds(1000);
  };
  // Sanity: the run fits the budget with the default 30 ms guards
  // (~250 ms window plus programming overhead).
  EXPECT_NO_THROW((void)runner.run(spec, &control));

  spec.program_guard = sim::seconds(2);
  EXPECT_THROW((void)runner.run(spec, &control), RunCancelled);
}

TEST(CampaignTest, DuplicateDeliveriesAreCountedNotClampedAway) {
  // loss_rate() must not hide received > sent behind a clamp; the
  // duplicates() accessor reports the overshoot explicitly.
  CampaignResult r;
  r.counters.messages_sent = 100;
  r.counters.messages_received = 103;
  EXPECT_EQ(r.duplicates(), 3u);
  EXPECT_DOUBLE_EQ(r.loss_rate(), 0.0);
  r.counters.messages_received = 97;
  EXPECT_EQ(r.duplicates(), 0u);
  EXPECT_DOUBLE_EQ(r.loss_rate(), 0.03);

  // No live campaign in this testbed duplicates datagrams, but
  // window-boundary skew (warmup sends delivered inside the window) can
  // register a small overshoot — bounded like the baseline's loss check.
  MyrinetFabric fabric(campaign_config());
  fabric.start();
  fabric.settle(milliseconds(60));
  CampaignRunner runner(fabric);
  const auto live = runner.run(quick_spec("dups"));
  EXPECT_LE(live.duplicates(), live.counters.messages_sent / 100);
}

TEST(CampaignTest, BothMediaPaceTheWorkloadAlike) {
  // One workload program paces both media, so a fault-free run of the
  // same workload and seed hands each medium the same messages. The bed
  // is run_sweep's: with mapping settled, every Myrinet send has a route.
  TestbedConfig config;
  config.map_period = milliseconds(100);
  config.nic_config.rx_processing_time = microseconds(1);
  config.send_stack_time = microseconds(1);
  config.fc.rx_processing_time = microseconds(1);
  MyrinetFabric myrinet(config);
  FcFabric fc(config);
  for (Fabric* fabric : {static_cast<Fabric*>(&myrinet),
                         static_cast<Fabric*>(&fc)}) {
    fabric->start();
    fabric->settle(milliseconds(160));
  }
  const struct {
    std::int64_t interval_us;
    std::size_t burst;
    double jitter;
  } points[] = {{12, 4, 0.5}, {40, 1, 0.0}, {25, 2, 0.9}};
  for (const auto& point : points) {
    for (const std::uint64_t seed : {1u, 17u}) {
      CampaignSpec spec = quick_spec("pacing");
      spec.duration = milliseconds(5);
      spec.seed = seed;
      spec.workload.udp_interval = microseconds(point.interval_us);
      spec.workload.payload_size = 256;
      spec.workload.burst_size = point.burst;
      spec.workload.jitter = point.jitter;
      const auto sent = [&spec](Fabric& fabric) {
        return CampaignRunner(fabric).run(spec).counters.messages_sent;
      };
      const std::uint64_t on_myrinet = sent(myrinet);
      SCOPED_TRACE(::testing::Message()
                   << point.interval_us << " us, burst " << point.burst
                   << ", jitter " << point.jitter << ", seed " << seed);
      EXPECT_GT(on_myrinet, 0u);
      EXPECT_EQ(on_myrinet, sent(fc));
    }
  }
}

TEST(ReportTest, RenderAlignsColumns) {
  Report rep("Table 4: control symbol corruption");
  rep.set_header({"Mask", "Replacement", "Sent", "Received", "Loss"});
  rep.add_row({"STOP", "IDLE", "4064", "3705", "8%"});
  rep.add_row({"GAP", "GO", "3132", "2785", "11%"});
  rep.add_note("each run started from a known good state");
  const auto text = rep.render();
  EXPECT_NE(text.find("Table 4"), std::string::npos);
  EXPECT_NE(text.find("STOP"), std::string::npos);
  EXPECT_NE(text.find("note:"), std::string::npos);
}

TEST(ReportTest, MarkdownHasSeparatorRow) {
  Report rep("t");
  rep.set_header({"a", "b"});
  rep.add_row({"1", "2"});
  const auto md = rep.markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(ReportTest, CellFormats) {
  EXPECT_EQ(cell("%d", 42), "42");
  EXPECT_EQ(cell("%.1f%%", 12.34), "12.3%");
}

}  // namespace
}  // namespace hsfi::nftape
