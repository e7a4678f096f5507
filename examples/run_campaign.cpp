// Command-line campaign runner: the downstream-user tool. Pick a fault by
// name, a duration, and get the NFTAPE-style report.
//
//   ./build/examples/run_campaign stop-gap 200
//   ./build/examples/run_campaign seu:00FF 300
//   ./build/examples/run_campaign udp-swap
//   ./build/examples/run_campaign list
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "myrinet/control.hpp"
#include "nftape/campaign.hpp"
#include "nftape/fabric.hpp"
#include "nftape/faults.hpp"
#include "nftape/report.hpp"
#include "nftape/testbed.hpp"
#include "orchestrator/campaign_file.hpp"

using namespace hsfi;
using myrinet::ControlSymbol;

namespace {

struct NamedFault {
  const char* name;
  const char* what;
};

constexpr NamedFault kCatalog[] = {
    {"none", "baseline, no fault"},
    {"stop-idle", "control symbol STOP -> IDLE (Table 4)"},
    {"stop-gap", "control symbol STOP -> GAP (Table 4)"},
    {"stop-go", "control symbol STOP -> GO (Table 4)"},
    {"gap-go", "control symbol GAP -> GO (Table 4)"},
    {"gap-idle", "control symbol GAP -> IDLE (Table 4)"},
    {"gap-stop", "control symbol GAP -> STOP (Table 4)"},
    {"go-idle", "control symbol GO -> IDLE (Table 4)"},
    {"go-gap", "control symbol GO -> GAP (Table 4)"},
    {"go-stop", "control symbol GO -> STOP (Table 4)"},
    {"map-type", "mapping packet type 0x0005 -> 0x0015 (4.3.2)"},
    {"data-type", "data packet type 0x0004 -> 0x0014 (4.3.2)"},
    {"marker-msb", "destination marker MSB set (4.3.2)"},
    {"udp-swap", "payload word swap 'Have' -> 'veHa' (4.3.4)"},
    {"seu:<hex16>", "random bit flips at LFSR mask rate (3.1)"},
};

std::optional<core::InjectorConfig> fault_by_name(const std::string& name) {
  const auto sym = [](const char* a, const char* b) {
    const auto parse = [](const char* s) {
      if (!std::strcmp(s, "stop")) return ControlSymbol::kStop;
      if (!std::strcmp(s, "gap")) return ControlSymbol::kGap;
      if (!std::strcmp(s, "go")) return ControlSymbol::kGo;
      return ControlSymbol::kIdle;
    };
    return nftape::control_symbol_corruption(parse(a), parse(b));
  };
  if (name == "none") return core::InjectorConfig{};
  if (name == "stop-idle") return sym("stop", "idle");
  if (name == "stop-gap") return sym("stop", "gap");
  if (name == "stop-go") return sym("stop", "go");
  if (name == "gap-go") return sym("gap", "go");
  if (name == "gap-idle") return sym("gap", "idle");
  if (name == "gap-stop") return sym("gap", "stop");
  if (name == "go-idle") return sym("go", "idle");
  if (name == "go-gap") return sym("go", "gap");
  if (name == "go-stop") return sym("go", "stop");
  if (name == "map-type") {
    return nftape::packet_type_corruption(myrinet::kTypeMapping, 0x0015);
  }
  if (name == "data-type") {
    return nftape::packet_type_corruption(myrinet::kTypeData, 0x0014);
  }
  if (name == "marker-msb") return nftape::marker_msb_corruption();
  if (name == "udp-swap") return nftape::udp_word_swap_have_to_veha();
  if (name.rfind("seu:", 0) == 0) {
    // 1-4 hex digits: strtoul would read "zz" as mask 0, which fires on
    // every compare.
    const std::string hex = name.substr(4);
    if (hex.empty() || hex.size() > 4 ||
        hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
      return std::nullopt;
    }
    const auto mask = std::strtoul(hex.c_str(), nullptr, 16);
    return nftape::random_bit_flip_seu(static_cast<std::uint16_t>(mask));
  }
  return std::nullopt;
}

void usage(std::FILE* to = stdout) {
  std::fprintf(to, "usage: run_campaign <fault> [duration-ms]\n\nfaults:\n");
  for (const auto& f : kCatalog) {
    std::fprintf(to, "  %-12s %s\n", f.name, f.what);
  }
}

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "%s\n\n", why.c_str());
  usage(stderr);
  std::exit(1);
}

/// The window in whole milliseconds, refused as run_sweep's --duration-ms
/// is: anything but a plain integer in [0, kMaxDurationMs].
long parse_duration_ms(const char* v) {
  char* end = nullptr;
  errno = 0;
  const long long ms = std::strtoll(v, &end, 10);
  if (errno == ERANGE || end == v || *end != '\0' || ms < 0 ||
      static_cast<double>(ms) > orchestrator::kMaxDurationMs) {
    refuse(std::string("duration-ms must be an integer in [0, 1000000], ") +
           "got '" + v + "'");
  }
  return static_cast<long>(ms);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "list" ||
      std::string(argv[1]) == "--help") {
    usage();
    return argc < 2 ? 1 : 0;
  }
  const std::string name = argv[1];
  const long duration_ms = argc > 2 ? parse_duration_ms(argv[2]) : 200;
  const auto fault = fault_by_name(name);
  if (!fault) refuse("unknown fault '" + name + "'");

  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(100);
  config.nic_config.rx_processing_time = sim::microseconds(1);
  config.send_stack_time = sim::microseconds(1);
  nftape::MyrinetFabric fabric(config);
  fabric.start();
  fabric.settle(sim::milliseconds(150));
  nftape::CampaignRunner runner(fabric);

  nftape::CampaignSpec spec;
  spec.name = name;
  if (name != "none") spec.fault_to_switch = fault;
  spec.fault_from_switch = spec.fault_to_switch;
  spec.duration = sim::milliseconds(duration_ms);
  spec.workload.udp_interval = sim::microseconds(12);
  spec.workload.payload_size = 256;
  spec.workload.burst_size = 4;
  spec.workload.jitter = 0.5;
  std::printf("running campaign '%s' for %ld ms (simulated)...\n",
              name.c_str(), duration_ms);
  const auto r = runner.run(spec);

  nftape::Report report("campaign: " + name);
  report.set_header({"metric", "value"});
  const auto row = [&report](const char* k, std::uint64_t v) {
    report.add_row({k, nftape::cell("%llu", (unsigned long long)v)});
  };
  row("messages sent", r.counters.messages_sent);
  row("messages received", r.counters.messages_received);
  report.add_row({"loss", nftape::cell("%.2f%%", 100.0 * r.loss_rate())});
  row("injections", r.counters.injections);
  row("link CRC-8 drops", r.counters.crc_errors);
  row("UDP checksum/length drops", r.counters.checksum_drops);
  row("marker errors", r.counters.marker_errors);
  row("unknown-type drops", r.counters.unknown_type);
  row("unroutable (mapping damage)", r.counters.unroutable);
  row("rx ring overflows", r.counters.ring_overflows);
  row("tx queue drops", r.counters.tx_drops);
  row("switch slack overflow", r.counters.slack_overflow);
  row("switch long timeouts", r.counters.long_timeouts);
  std::printf("\n%s", report.render().c_str());
  return 0;
}
