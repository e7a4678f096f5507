// SEU-rate sweep (paper §3.1: "Random faults causing bit flip errors for
// system availability and fault tolerance characterization under SEU
// conditions").
//
// The injector's LFSR trigger thins an all-match compare to a configurable
// random rate; each rate runs a full campaign. Expected shape: message
// loss grows with the upset rate, and essentially every surviving upset is
// caught by the link CRC-8 (raw bit flips are exactly what it protects
// against) — the network fails silent, never dirty, matching the paper's
// "passive faults" conclusion in §4.4.
//
// Runs through the orchestrator worker pool (one private testbed per rate
// point), so the sweep scales with cores and every row is seeded
// independently of execution order.
#include <cstdio>

#include "nftape/faults.hpp"
#include "nftape/report.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"

using namespace hsfi;

int main() {
  const struct {
    std::uint16_t mask;
    const char* rate;
  } points[] = {
      {0x3FFF, "1/16384 chars"}, {0x0FFF, "1/4096 chars"},
      {0x03FF, "1/1024 chars"},  {0x00FF, "1/256 chars"},
      {0x003F, "1/64 chars"},
  };

  orchestrator::SweepSpec sweep;
  sweep.name = "seu";
  sweep.testbed.map_period = sim::milliseconds(100);
  sweep.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  sweep.testbed.send_stack_time = sim::microseconds(1);
  sweep.base.warmup = sim::milliseconds(10);
  sweep.base.duration = sim::milliseconds(150);
  sweep.base.drain = sim::milliseconds(10);
  sweep.base.workload.udp_interval = sim::microseconds(20);
  sweep.base.workload.payload_size = 128;
  sweep.directions = {orchestrator::FaultDirection::kBoth};
  for (const auto& point : points) {
    sweep.faults.push_back({nftape::cell("seu-%04X", point.mask),
                            nftape::random_bit_flip_seu(point.mask), ""});
  }

  const auto runs = orchestrator::expand(sweep);
  orchestrator::RunnerConfig rc;
  rc.on_progress = [](const orchestrator::Progress& p) {
    std::fprintf(stderr, "\r%zu/%zu campaigns done   ", p.completed + p.failed,
                 p.total);
  };
  const auto records = orchestrator::Runner(rc).run_all(runs);
  std::fprintf(stderr, "\n");

  nftape::Report report("Random SEU injection sweep (paper 3.1 fault model)");
  report.set_header({"LFSR mask", "~flip rate", "injections", "sent",
                     "received", "loss", "CRC-8 drops", "delivered dirty"});
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i].result;
    if (records[i].outcome != orchestrator::RunOutcome::kOk) {
      report.add_row({nftape::cell("0x%04X", points[i].mask), points[i].rate,
                      std::string(orchestrator::to_string(records[i].outcome)),
                      "-", "-", "-", "-", "-"});
      continue;
    }
    // "Dirty" deliveries would be upsets that slipped past every check —
    // corrupted payload handed to the application. The checksum layers
    // make these effectively impossible; anything not accounted to a
    // detector below is ordinary loss, not dirt, but we report the bound.
    const auto& c = r.counters;
    const std::uint64_t detected = c.crc_errors + c.checksum_drops +
                                   c.marker_errors + c.unknown_type;
    report.add_row({nftape::cell("0x%04X", points[i].mask), points[i].rate,
                    nftape::cell("%llu", (unsigned long long)c.injections),
                    nftape::cell("%llu", (unsigned long long)c.messages_sent),
                    nftape::cell("%llu", (unsigned long long)c.messages_received),
                    nftape::cell("%.2f%%", 100.0 * r.loss_rate()),
                    nftape::cell("%llu", (unsigned long long)c.crc_errors),
                    detected >= c.injections
                        ? "0 (all detected)"
                        : nftape::cell("<= %llu",
                                       (unsigned long long)(c.injections -
                                                            detected))});
  }
  report.add_note("all faults observed were passive (paper 4.4): \"Data "
                  "were dropped and lost, but not incorrectly passed on\"");
  std::printf("\n%s", report.render().c_str());
  return 0;
}
