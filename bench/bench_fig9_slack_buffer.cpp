// Reproduces Fig. 9: the Myrinet slack buffer. "When it reaches the high
// water mark, the buffer generates a STOP control symbol. Correspondingly,
// it generates a GO symbol upon reaching the low water mark."
//
// Two hosts contend for the same switch output; the loser's input slack
// fills until STOP, drains to the low watermark, GOes, and oscillates. The
// occupancy-versus-time series prints as an ASCII strip chart with the
// watermarks and the emitted flow symbols marked.
#include <cstdio>
#include <string>
#include <vector>

#include "host/traffic.hpp"
#include "nftape/testbed.hpp"

using namespace hsfi;

int main() {
  nftape::TestbedConfig config;
  config.map_period = sim::milliseconds(100);
  config.nic_config.rx_processing_time = sim::microseconds(1);
  config.send_stack_time = sim::microseconds(1);
  nftape::Testbed bed(config);
  bed.start();
  bed.settle(sim::milliseconds(150));

  struct Sample {
    sim::SimTime when;
    std::size_t occupancy;
    std::optional<myrinet::ControlSymbol> emitted;
  };
  std::vector<Sample> series;
  auto& slack = bed.network_switch().input_slack(1);
  slack.set_probe([&series](sim::SimTime when, std::size_t occ,
                            std::optional<myrinet::ControlSymbol> emitted) {
    if (emitted || series.empty() ||
        when - series.back().when > sim::nanoseconds(200)) {
      series.push_back({when, occ, emitted});
    }
  });

  // Node 0 and node 1 both blast node 2; node 1's input loses arbitration
  // bursts and its slack buffer does the Fig. 9 dance.
  host::UdpSink sink(bed.host(2), 9);
  host::UdpFlood::Config f0;
  f0.target = 3;
  f0.interval = sim::microseconds(8);
  f0.payload_size = 512;
  f0.burst_size = 2;
  host::UdpFlood flood0(bed.sim(), bed.host(0), f0);
  host::UdpFlood::Config f1 = f0;
  f1.src_port = 2049;
  f1.seed = 7;
  host::UdpFlood flood1(bed.sim(), bed.host(1), f1);
  const sim::SimTime t0 = bed.sim().now();
  flood0.start();
  flood1.start();
  bed.settle(sim::microseconds(300));
  flood0.stop();
  flood1.stop();
  bed.settle(sim::milliseconds(1));

  const auto& cfg = slack.config();
  std::printf("Fig. 9: slack buffer of switch input port 1\n");
  std::printf("capacity=%zu high-watermark=%zu low-watermark=%zu\n\n",
              cfg.capacity, cfg.high_watermark, cfg.low_watermark);
  std::printf("%-12s %-6s %-42s %s\n", "time", "occ", "occupancy", "flow");
  const double scale = 40.0 / static_cast<double>(cfg.capacity);
  int stops = 0;
  int gos = 0;
  int refreshes = 0;
  bool stopped = false;
  for (const auto& s : series) {
    // While stopped, the slack re-sends STOP every refresh interval; only
    // the first STOP after a GO is a transition.
    const bool refresh = s.emitted == myrinet::ControlSymbol::kStop && stopped;
    if (s.emitted) stopped = s.emitted == myrinet::ControlSymbol::kStop;
    if (s.when < t0) continue;
    if (refresh) {
      ++refreshes;  // refresh STOPs would flood the chart
      continue;
    }
    std::string bar(static_cast<std::size_t>(
                        static_cast<double>(s.occupancy) * scale),
                    '#');
    bar.resize(40, ' ');
    bar[static_cast<std::size_t>(
        static_cast<double>(cfg.high_watermark) * scale)] = 'H';
    bar[static_cast<std::size_t>(
        static_cast<double>(cfg.low_watermark) * scale)] = 'L';
    const char* mark = "";
    if (s.emitted == myrinet::ControlSymbol::kStop) {
      mark = "<== STOP";
      ++stops;
    } else if (s.emitted == myrinet::ControlSymbol::kGo) {
      mark = "<== GO";
      ++gos;
    }
    if (s.emitted || s.occupancy > 0) {
      std::printf("%-12s %-6zu|%s| %s\n",
                  sim::format_time(s.when - t0).c_str(), s.occupancy,
                  bar.c_str(), mark);
    }
  }
  std::printf("\nSTOP transitions: %d, GO transitions: %d "
              "(STOP at the high watermark, GO at the low watermark,\n"
              "exactly the Fig. 9 behavior; %d refresh STOPs suppressed "
              "from the chart)\n", stops, gos, refreshes);
  std::printf("messages delivered under flow control: %llu (no loss: "
              "sender paused instead of overflowing)\n",
              (unsigned long long)sink.received());
  return 0;
}
