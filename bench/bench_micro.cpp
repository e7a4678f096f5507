// Google-benchmark microbenchmarks for the hot datapath pieces: the
// Myrinet CRC-8 (recomputed per hop per byte), the FC CRC-32, the 8b/10b
// codec (one invocation per transmitted character), the FIFO injector's
// per-character clock, the UDP one's-complement checksum, and the event
// kernel's queue on its campaign operation mix.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/fifo_injector.hpp"
#include "fc/crc32.hpp"
#include "fc/enc8b10b.hpp"
#include "host/udp.hpp"
#include "myrinet/crc8.hpp"
#include "sim/event_queue.hpp"

namespace {

std::vector<std::uint8_t> make_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 37);
  return v;
}

void BM_Crc8(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsfi::myrinet::crc8(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc8)->Arg(64)->Arg(256)->Arg(2048);

void BM_Crc32(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsfi::fc::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(2048);

void BM_Encode8b10b(benchmark::State& state) {
  auto rd = hsfi::fc::Disparity::kMinus;
  std::uint8_t v = 0;
  for (auto _ : state) {
    const auto enc = hsfi::fc::encode_8b10b(hsfi::fc::Char8{v++, false}, rd);
    rd = enc->rd;
    benchmark::DoNotOptimize(enc->code);
  }
}
BENCHMARK(BM_Encode8b10b);

void BM_Decode8b10b(benchmark::State& state) {
  // Pre-encode a cycle of groups to decode.
  std::vector<std::uint16_t> groups;
  auto rd = hsfi::fc::Disparity::kMinus;
  for (int v = 0; v < 256; ++v) {
    const auto enc = hsfi::fc::encode_8b10b(
        hsfi::fc::Char8{static_cast<std::uint8_t>(v), false}, rd);
    groups.push_back(enc->code);
    rd = enc->rd;
  }
  std::size_t i = 0;
  rd = hsfi::fc::Disparity::kMinus;
  for (auto _ : state) {
    const auto dec = hsfi::fc::decode_8b10b(groups[i], rd);
    rd = dec.rd;
    benchmark::DoNotOptimize(dec.character.value);
    if (++i == groups.size()) {
      i = 0;
      rd = hsfi::fc::Disparity::kMinus;
    }
  }
}
BENCHMARK(BM_Decode8b10b);

void BM_FifoInjectorClock(benchmark::State& state) {
  hsfi::core::FifoInjector injector;
  auto& cfg = injector.config();
  cfg.match_mode = hsfi::core::MatchMode::kOn;
  cfg.compare_data = 0x00001818;
  cfg.compare_mask = 0x0000FFFF;
  cfg.corrupt_data = 0x00000100;
  std::uint8_t v = 0;
  for (auto _ : state) {
    const auto r = injector.clock(hsfi::link::data_symbol(v++));
    benchmark::DoNotOptimize(r.matched);
  }
  // Each iteration is one character = 12.5 ns of 80 MB/s wire time; report
  // the realized simulation speedup over real time.
  state.counters["chars/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FifoInjectorClock);

void BM_UdpChecksum(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsfi::host::ones_complement_checksum(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_UdpChecksum)->Arg(64)->Arg(1472);

// The event queue alone, on the operation mix a saturated myrinet_grid run
// gives it: about 125 events pending at each pop, schedule delays drawn
// from that run's histogram, and 8% of schedules cancelled one schedule
// later. One iteration is one schedule plus the pops that keep the queue
// at its pending level (about one), so time per iteration is the kernel
// queue's cost per event. The draws are made before timing starts, so the
// random number generator's cost stays out of the figure.
void BM_EventQueueMix(benchmark::State& state) {
  using hsfi::sim::SimTime;
  constexpr std::size_t kPending = 125;
  constexpr SimTime kLongTimeout = 50'000'000'000;  // 50 ms
  struct Draw {
    SimTime delay;
    bool cancel_next;  ///< cancel this event at the next schedule
  };
  std::mt19937_64 rng(0x5C4ED);
  const auto in = [&rng](SimTime lo, SimTime hi) {
    return lo +
           static_cast<SimTime>(rng() % static_cast<std::uint64_t>(hi - lo));
  };
  // Delay histogram in permille: 5% at 0, 33% up to 12.5 ns, 9% in
  // 12.5-25 ns, 0.8% in 25-50 ns, 32% in 50-200 ns, 20% in 0.2-1 us, and
  // 0.2% beyond 1 us, modelled as the switch's per-packet long timeout,
  // which is always cancelled (a far event that fired would instead sit
  // in the queue for millions of pops and skew the pending mix).
  std::vector<Draw> draws(1 << 16);
  for (Draw& d : draws) {
    const auto p = rng() % 1000;
    d.delay = p < 50    ? 0
              : p < 380 ? in(1, 12'500)
              : p < 470 ? in(12'500, 25'000)
              : p < 478 ? in(25'000, 50'000)
              : p < 798 ? in(50'000, 200'000)
              : p < 998 ? in(200'000, 1'000'000)
                        : kLongTimeout;
    d.cancel_next = d.delay == kLongTimeout || rng() % 1000 < 78;
  }
  hsfi::sim::EventQueue queue;
  std::uint64_t fired = 0;
  SimTime now = 0;
  std::size_t next = 0;
  hsfi::sim::EventId victim = hsfi::sim::kInvalidEventId;
  const auto schedule = [&] {
    queue.cancel(victim);  // a no-op if none, or if it already fired
    const Draw& d = draws[next++ & (draws.size() - 1)];
    const hsfi::sim::EventId id =
        queue.schedule(now + d.delay, [&fired] { ++fired; });
    victim = d.cancel_next ? id : hsfi::sim::kInvalidEventId;
  };
  while (queue.size() < kPending) schedule();
  for (auto _ : state) {
    schedule();
    while (queue.size() > kPending) {
      auto event = queue.pop();
      now = event.when;
      event.action();
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueMix);

}  // namespace

BENCHMARK_MAIN();
