// The injector board both media share (nftape::InjectorBoard): serial
// programming lands exactly the config the fault names, and a snapshot
// restore rewinds the board — taps, command plane and decoder — to what it
// read at capture, on the Myrinet testbed and the FC fabric alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "analysis/analyzer.hpp"
#include "nftape/fabric.hpp"
#include "nftape/fc_fabric.hpp"
#include "orchestrator/campaign_file.hpp"

namespace hsfi::nftape {
namespace {

using core::Direction;

constexpr Direction kDirections[] = {Direction::kLeftToRight,
                                     Direction::kRightToLeft};

TestbedConfig quick_config() {
  TestbedConfig config;
  config.map_period = sim::milliseconds(20);
  config.map_reply_window = sim::milliseconds(2);
  config.nic_config.rx_processing_time = sim::microseconds(10);
  config.send_stack_time = sim::microseconds(2);
  return config;
}

InjectorBoard& board_of(Fabric& fabric) {
  if (auto* myrinet = dynamic_cast<MyrinetFabric*>(&fabric)) {
    return myrinet->bed().board();
  }
  return dynamic_cast<FcFabric&>(fabric).board();
}

/// Runs the fabric until every queued serial command is acknowledged.
void settle_until_idle(Fabric& fabric) {
  auto& control = board_of(fabric).control();
  for (int i = 0; i < 2000 && !control.idle(); ++i) {
    fabric.settle(sim::milliseconds(1));
  }
  ASSERT_TRUE(control.idle());
}

class BoardTest : public ::testing::TestWithParam<Medium> {};

TEST_P(BoardTest, SerialProgrammingLandsTheFaultConfig) {
  const Medium medium = GetParam();
  std::size_t programmed = 0;
  for (const auto& fault : orchestrator::standard_fault_axis(medium)) {
    if (!fault.config) continue;
    for (const auto dir : kDirections) {
      SCOPED_TRACE(fault.name + " " + std::string(core::to_string(dir)));
      auto fabric = make_fabric(medium, quick_config());
      fabric->program_fault(dir, *fault.config, /*via_serial=*/true);
      settle_until_idle(*fabric);
      InjectorBoard& board = board_of(*fabric);
      EXPECT_TRUE(board.injector().config(dir) == *fault.config);
      EXPECT_GT(board.control().commands_completed(), 0u);
      EXPECT_EQ(board.decoder().stats().commands_err, 0u);
      ++programmed;
    }
  }
  EXPECT_GE(programmed, 10u);
}

/// What a restore must rewind on the board.
struct BoardReading {
  core::InjectorConfig config[2];
  core::FifoInjector::Stats fifo[2];
  std::uint64_t commands_completed = 0;
  core::CommandDecoder::Stats decoder;
};

BoardReading read_board(InjectorBoard& board) {
  BoardReading r;
  for (const auto dir : kDirections) {
    r.config[core::index(dir)] = board.injector().config(dir);
    r.fifo[core::index(dir)] = board.injector().fifo_stats(dir);
  }
  r.commands_completed = board.control().commands_completed();
  r.decoder = board.decoder().stats();
  return r;
}

void expect_same(const BoardReading& a, const BoardReading& b) {
  for (const auto dir : kDirections) {
    const auto i = core::index(dir);
    EXPECT_TRUE(a.config[i] == b.config[i]) << core::to_string(dir);
    EXPECT_EQ(a.fifo[i].characters, b.fifo[i].characters);
    EXPECT_EQ(a.fifo[i].matches, b.fifo[i].matches);
    EXPECT_EQ(a.fifo[i].injections, b.fifo[i].injections);
    EXPECT_EQ(a.fifo[i].forced, b.fifo[i].forced);
  }
  EXPECT_EQ(a.commands_completed, b.commands_completed);
  EXPECT_EQ(a.decoder.commands_ok, b.decoder.commands_ok);
  EXPECT_EQ(a.decoder.commands_err, b.decoder.commands_err);
}

TEST_P(BoardTest, RestoreRewindsTheBoardToItsCapture) {
  const Medium medium = GetParam();
  auto fabric = make_fabric(medium, quick_config());
  fabric->start();
  fabric->settle(sim::milliseconds(30));
  const auto snap = fabric->capture_snapshot();
  ASSERT_NE(snap, nullptr);
  InjectorBoard& board = board_of(*fabric);
  const BoardReading at_capture = read_board(board);

  const auto axis = orchestrator::standard_fault_axis(medium);
  const auto fault =
      std::find_if(axis.begin(), axis.end(),
                   [](const auto& f) { return f.name == "seu-00FF"; });
  ASSERT_NE(fault, axis.end());
  analysis::ManifestationAnalyzer analyzer;
  fabric->reset_to_known_good(fabric->base_seed());
  fabric->attach_monitors(analyzer);
  fabric->program_fault(Direction::kLeftToRight, *fault->config,
                        /*via_serial=*/true);
  settle_until_idle(*fabric);
  WorkloadSpec workload;
  workload.udp_interval = sim::microseconds(12);
  workload.payload_size = 256;
  workload.burst_size = 4;
  fabric->start_workload(workload, 7, analyzer);
  fabric->settle(sim::milliseconds(5));
  fabric->stop_workload();
  fabric->clear_workload();
  fabric->detach_monitors();

  const BoardReading after_run = read_board(board);
  EXPECT_GT(after_run.commands_completed, at_capture.commands_completed);
  EXPECT_GT(after_run.decoder.commands_ok, at_capture.decoder.commands_ok);
  EXPECT_NE(after_run.fifo[0].characters, at_capture.fifo[0].characters);
  EXPECT_FALSE(after_run.config[0] == at_capture.config[0]);

  fabric->restore_snapshot(*snap);
  expect_same(read_board(board), at_capture);
}

INSTANTIATE_TEST_SUITE_P(BothMedia, BoardTest,
                         ::testing::Values(Medium::kMyrinet, Medium::kFc),
                         [](const ::testing::TestParamInfo<Medium>& p) {
                           return std::string(to_string(p.param));
                         });

}  // namespace
}  // namespace hsfi::nftape
