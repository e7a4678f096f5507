// Control-symbol corruption campaign (a short form of the paper's Table 4).
//
// Runs three representative mask -> replacement rows through the NFTAPE
// campaign runner — the full nine-row table is regenerated by
// bench/bench_table4_control_symbols.
//
// Build & run:  ./build/examples/campaign_control_symbols
#include <cstdio>

#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/report.hpp"
#include "nftape/testbed.hpp"

using namespace hsfi;
using myrinet::ControlSymbol;

int main() {
  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(100);
  nftape::MyrinetFabric fabric(config);
  fabric.start();
  fabric.settle(sim::milliseconds(150));

  nftape::CampaignRunner runner(fabric);
  nftape::Report report("Control symbol corruption (paper Table 4, excerpt)");
  report.set_header({"Mask", "Replacement", "Sent", "Received", "Loss"});

  const struct {
    ControlSymbol from;
    ControlSymbol to;
  } rows[] = {
      {ControlSymbol::kStop, ControlSymbol::kGap},
      {ControlSymbol::kGap, ControlSymbol::kGo},
      {ControlSymbol::kGo, ControlSymbol::kStop},
  };

  for (const auto& row : rows) {
    nftape::CampaignSpec spec;
    spec.name = std::string(to_string(row.from)) + "->" +
                std::string(to_string(row.to));
    spec.fault_to_switch = nftape::control_symbol_corruption(row.from, row.to);
    spec.fault_from_switch = spec.fault_to_switch;
    spec.duration = sim::milliseconds(400);
    spec.workload.udp_interval = sim::microseconds(150);
    std::printf("running %s ...\n", spec.name.c_str());
    const auto r = runner.run(spec);
    const auto& c = r.counters;
    report.add_row({std::string(to_string(row.from)),
                    std::string(to_string(row.to)),
                    nftape::cell("%llu", (unsigned long long)c.messages_sent),
                    nftape::cell("%llu", (unsigned long long)c.messages_received),
                    nftape::cell("%.0f%%", 100.0 * r.loss_rate())});
  }
  report.add_note("every node floods UDP; injector corrupts both directions "
                  "of node 0's link; each run starts from a known good state");
  std::printf("\n%s\n", report.render().c_str());
  return 0;
}
