// Failure-manifestation breakdown across the fault taxonomy (paper §4.3):
// one NFTAPE campaign per fault class, each firing followed downstream and
// classified — masked, dropped by CRC, marker error, corrupted payload
// delivered, misrouted, dropped otherwise, long-period timeout, or mapping
// disruption. The classes of each run sum to its injection count exactly,
// so the table accounts for every firing.
//
// Also renders the cumulative per-class totals and the merged firing ->
// first-effect latency histogram, both deterministic in simulated time.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/manifestation.hpp"
#include "analysis/metrics.hpp"
#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/report.hpp"
#include "nftape/testbed.hpp"

using namespace hsfi;
using myrinet::ControlSymbol;

namespace {

struct FaultRow {
  const char* name;
  core::InjectorConfig config;
};

core::InjectorConfig aliasing_fill_swap() {
  core::InjectorConfig cfg;
  cfg.match_mode = core::MatchMode::kOn;
  cfg.corrupt_mode = core::CorruptMode::kReplace;
  cfg.compare_data = 0x5A5A5A5A;  // four fill bytes in a row
  cfg.compare_mask = 0xFFFFFFFF;
  cfg.compare_ctl = 0x0;
  cfg.compare_ctl_mask = 0xF;
  cfg.corrupt_data = 0x5A5B5A59;  // same 16-bit ones-complement sum
  cfg.corrupt_mask = 0xFFFFFFFF;
  cfg.lfsr_mask = 0x00FF;  // thin the (ubiquitous) match to ~1/256 windows
  cfg.crc_repatch = true;
  return cfg;
}

std::vector<FaultRow> fault_rows() {
  return {
      {"seu-00FF", nftape::random_bit_flip_seu(0x00FF)},
      {"marker-msb", nftape::marker_msb_corruption()},
      {"stop->gap", nftape::control_symbol_corruption(ControlSymbol::kStop,
                                                      ControlSymbol::kGap)},
      {"gap->idle", nftape::control_symbol_corruption(ControlSymbol::kGap,
                                                      ControlSymbol::kIdle)},
      {"go->stop", nftape::control_symbol_corruption(ControlSymbol::kGo,
                                                     ControlSymbol::kStop)},
      // Checksum-aliasing payload rewrite (§4.3.4 technique against this
      // workload's constant 0x5A fill): 5A5A+5A5A == 5A5B+5A59, so a
      // word-aligned hit passes link CRC *and* UDP checksum and the
      // corruption is delivered — the one class drop counters never see.
      // Unaligned hits straddle checksum words and die at UDP instead.
      {"alias-swap", aliasing_fill_swap()},
  };
}

}  // namespace

int main() {
  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(100);
  config.nic_config.rx_processing_time = sim::microseconds(1);
  config.send_stack_time = sim::microseconds(1);
  nftape::MyrinetFabric fabric(config);
  fabric.start();
  fabric.settle(sim::milliseconds(150));
  nftape::CampaignRunner runner(fabric);

  nftape::Report report("Failure manifestations by fault class");
  std::vector<std::string> header = {"fault", "injections"};
  for (const auto m : analysis::all_manifestations()) {
    header.emplace_back(analysis::to_string(m));
  }
  header.emplace_back("secondary");
  report.set_header(header);

  analysis::ManifestationBreakdown total;
  std::uint64_t secondary = 0;
  analysis::Histogram latency;
  for (const auto& row : fault_rows()) {
    nftape::CampaignSpec spec;
    spec.name = row.name;
    spec.warmup = sim::milliseconds(10);
    spec.duration = sim::milliseconds(150);
    spec.drain = sim::milliseconds(10);
    spec.workload.udp_interval = sim::microseconds(12);
    spec.workload.payload_size = 256;
    spec.workload.burst_size = 4;
    spec.workload.jitter = 0.5;
    spec.fault_to_switch = row.config;
    spec.fault_from_switch = row.config;

    std::printf("running %s...\n", row.name);
    const auto r = runner.run(spec);

    std::vector<std::string> cells = {
        row.name,
        nftape::cell("%llu", (unsigned long long)r.counters.injections)};
    for (const auto m : analysis::all_manifestations()) {
      cells.push_back(
          nftape::cell("%llu", (unsigned long long)r.manifestations[m]));
    }
    cells.push_back(
        nftape::cell("%llu", (unsigned long long)r.secondary_effects));
    report.add_row(cells);
    total += r.manifestations;
    secondary += r.secondary_effects;
    latency.merge(r.manifestation_latency);

    if (r.manifestations.total() != r.counters.injections) {
      std::printf("BUG: %s breakdown sums to %llu, injections %llu\n",
                  row.name, (unsigned long long)r.manifestations.total(),
                  (unsigned long long)r.counters.injections);
      return 1;
    }
  }

  report.add_note("each row's classes sum to its injections exactly; "
                  "'secondary' counts cascade effects beyond the first per "
                  "firing and is not part of the sum");
  std::printf("\n%s\n", report.render().c_str());

  std::printf("cumulative over all faults:\n");
  for (const auto m : analysis::all_manifestations()) {
    const std::string name(analysis::to_string(m));
    std::printf("manifest.%s=%llu\n", name.c_str(),
                (unsigned long long)total[m]);
  }
  std::printf("secondary_effects=%llu\n", (unsigned long long)secondary);
  std::printf("manifestation_latency (n=%llu):\n%s\n",
              (unsigned long long)latency.count(), latency.render().c_str());
  return 0;
}
