// Dual-media failure analysis: "failure analysis can be performed
// simultaneously over both of these networks" (abstract) — the board
// carries both a MyriPHY and an FCPHY (paper Fig. 4).
//
// Since the Fabric refactor this is one campaign definition realized over
// both media: the same warmup/window/workload spec, the same 8-class
// manifestation taxonomy, the same counter snapshot — only the fault's
// compare/corrupt vectors are retargeted at each medium's framing (GAP
// symbols on Myrinet, the sequence payload fill on FC). Everything that
// used to be hand-wired here (splicing, workload, monitors, statistics)
// now comes from nftape::make_fabric + CampaignRunner.
//
// Build & run:  ./build/examples/dual_media_monitor
#include <cstdio>

#include "fc/frame.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "phy/serdes.hpp"

using namespace hsfi;

namespace {

/// The shared campaign shape; only the medium and fault differ per run.
nftape::CampaignResult run_on(nftape::Medium medium,
                              const core::InjectorConfig& fault) {
  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(100);
  const auto fabric = nftape::make_fabric(medium, config);
  fabric->start();
  fabric->settle(sim::milliseconds(150));

  nftape::CampaignSpec spec;
  spec.name = std::string(nftape::to_string(medium));
  spec.medium = medium;
  spec.fault_from_switch = fault;
  spec.warmup = sim::milliseconds(5);
  spec.duration = sim::milliseconds(50);
  spec.drain = sim::milliseconds(5);
  spec.workload.udp_interval = sim::microseconds(100);
  nftape::CampaignRunner runner(*fabric);
  return runner.run(spec);
}

void report(const char* banner, const nftape::CampaignResult& r) {
  std::printf("=== %s ===\n", banner);
  std::printf("sent=%llu received=%llu loss=%.1f%% injections=%llu\n",
              (unsigned long long)r.counters.messages_sent,
              (unsigned long long)r.counters.messages_received,
              100.0 * r.loss_rate(), (unsigned long long)r.counters.injections);
  std::printf("manifestations:");
  for (const auto m : analysis::all_manifestations()) {
    if (r.manifestations[m] == 0) continue;
    std::printf(" %s:%llu", std::string(analysis::to_string(m)).c_str(),
                (unsigned long long)r.manifestations[m]);
  }
  std::printf("\n");
  if (r.medium == nftape::Medium::kFc) {
    std::printf("credit stalls=%llu sequence aborts=%llu\n",
                (unsigned long long)r.counters.credit_stalls,
                (unsigned long long)r.counters.sequences_aborted);
    std::printf("(a corrupted frame is dropped by CRC-32 before a receive "
                "buffer frees, so\n its R_RDY never returns: BB credit leaks "
                "until the recovery timeout —\n a failure mode specific to "
                "credit-based flow control)\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // Myrinet: corrupt every GAP into IDLE — framing damage the receiving
  // interface reports as marker errors.
  report("Myrinet link (GAP -> IDLE corruption)",
         run_on(nftape::Medium::kMyrinet,
                nftape::control_symbol_corruption(myrinet::ControlSymbol::kGap,
                                                  myrinet::ControlSymbol::kIdle)));

  // Fibre Channel: flip payload-fill bits in flight (LFSR-thinned); the
  // frame CRC-32 catches them, like the Myrinet destination campaign.
  report("Fibre Channel link (payload fill toggle)",
         run_on(nftape::Medium::kFc, nftape::fc_fill_corruption(0x5A, 0x000F)));

  // ---- And the FC wire itself: 8b/10b error surface --------------------
  fc::FcFrame probe;
  probe.payload.assign(16, 0x42);
  std::vector<hsfi::link::Symbol> symbols;
  fc::frame_to_symbols_into(probe, symbols);
  phy::FcWireStream wire;
  phy::FcSerdes::encode_into(symbols, wire);
  phy::flip_wire_bit(wire, 10, 3);
  phy::FcDecodedStream decoded;
  phy::FcSerdes::decode_into(wire, decoded);
  std::printf("wire-level single-bit fault: %llu code violations, "
              "%llu disparity errors on decode\n",
              (unsigned long long)decoded.code_violations,
              (unsigned long long)decoded.disparity_errors);
  return 0;
}
