// Seeded random run records for the JSONL schema tests: every field the
// record writes, each optional one present or absent, counters at 0, at
// random values and at their maximum, and text that needs escaping.
#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>

#include "analysis/manifestation.hpp"
#include "orchestrator/runner.hpp"
#include "sim/time.hpp"

namespace hsfi::testing_support {

/// A value of `T` at 0, at its maximum, or uniformly random in between.
template <class T>
T random_count(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0: return 0;
    case 1: return std::numeric_limits<T>::max();
    default:
      return std::uniform_int_distribution<T>(
          0, std::numeric_limits<T>::max())(rng);
  }
}

/// Text with quotes, backslashes, control bytes and UTF-8 in it; never
/// empty when `non_empty`.
inline std::string random_text(std::mt19937_64& rng, bool non_empty) {
  static const std::string kPieces[] = {
      "gap-go", "/both", "/r", "7", ":", " ", "\"", "\\", "\t",
      "\n",     "\x01",  "\x1f", "\xc3\xa9", "{}", ",", "udp-us=12"};
  std::string out;
  const std::size_t n = (non_empty ? 1 : 0) + rng() % 6;
  for (std::size_t i = 0; i < n; ++i) {
    out += kPieces[rng() % std::size(kPieces)];
  }
  return out;
}

inline orchestrator::RunRecord random_record(std::mt19937_64& rng) {
  using orchestrator::RunOutcome;
  orchestrator::RunRecord r;
  r.index = random_count<std::size_t>(rng);
  r.name = random_text(rng, true);
  r.seed = random_count<std::uint64_t>(rng);
  r.medium = rng() % 2 ? nftape::Medium::kFc : nftape::Medium::kMyrinet;
  if (rng() % 2) {
    r.strategy = random_text(rng, true);
    r.round = random_count<std::uint32_t>(rng);
  }
  if (rng() % 2) r.scenario = random_text(rng, true);
  static const RunOutcome kOutcomes[] = {RunOutcome::kOk, RunOutcome::kTimedOut,
                                         RunOutcome::kError,
                                         RunOutcome::kSkipped};
  r.outcome = kOutcomes[rng() % 4];
  r.attempts = random_count<int>(rng);
  r.timeouts = random_count<int>(rng);
  if (rng() % 2) r.error = random_text(rng, true);
  auto& res = r.result;
  // Whole microseconds up to 10 s: window_ms carries three decimals.
  res.window = sim::microseconds(
      static_cast<std::int64_t>(rng() % 10'000'001));
  auto& c = res.counters;
  for (std::uint64_t* counter :
       {&c.messages_sent, &c.messages_received, &c.crc_errors,
        &c.marker_errors, &c.ring_overflows, &c.checksum_drops,
        &c.misaddressed, &c.unroutable, &c.unknown_type, &c.tx_drops,
        &c.slack_overflow, &c.long_timeouts, &c.injections, &c.credit_stalls,
        &c.sequences_aborted, &c.scenario_steps, &res.events_executed,
        &res.secondary_effects}) {
    *counter = random_count<std::uint64_t>(rng);
  }
  for (const auto m : analysis::all_manifestations()) {
    res.manifestations[m] = random_count<std::uint64_t>(rng);
  }
  // Thousandths of a millisecond, as wall_ms is written.
  r.wall_ms = static_cast<double>(rng() % 100'000'000) / 1000.0;
  return r;
}

}  // namespace hsfi::testing_support
