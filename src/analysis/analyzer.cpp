#include "analysis/analyzer.hpp"

#include <algorithm>

namespace hsfi::analysis {

Evidence evidence(sim::Observed kind) noexcept {
  using K = sim::Observed;
  using M = Manifestation;
  const auto effect = [](M what) {
    return Evidence{Evidence::Role::kEffect, what};
  };
  switch (kind) {
    case K::kInjectorFired:
    case K::kScenarioStep:
      return Evidence{Evidence::Role::kInjection, M::kMasked};
    case K::kInjectorApplied:
    case K::kMappingRoundBegun:
    case K::kMapInstalled:
      return Evidence{};
    // The FC CRC-32 drop is the CRC-8 drop's twin, and a mangled ordered
    // set is delimiter damage, the marker analogue (DESIGN §9).
    case K::kNicCrcError:
    case K::kFcCrcError:
      return effect(M::kCrcDropped);
    case K::kNicMarkerError:
    case K::kFcMalformedSet:
      return effect(M::kMarkerError);
    case K::kHostMisaddressed:
    case K::kInvalidRoute:
    case K::kFcDiscard:
      return effect(M::kMisrouted);
    // A failed send-side resolution means the routing/address state itself
    // is damaged: the paper's "removed from the network".
    case K::kHostUnknownPeer:
    case K::kHostUnroutable:
    case K::kMappingConfused:
      return effect(M::kMappingDisruption);
    // Credit exhaustion stalls the sender the way the paper's STOP faults
    // throttle Myrinet.
    case K::kLongTimeout:
    case K::kFcCreditStall:
      return effect(M::kTimeout);
    case K::kPayloadCorrupted:
      return effect(M::kPayloadCorruptedDelivered);
    case K::kNicTooShort:
    case K::kNicRingOverflow:
    case K::kHostBadChecksum:
    case K::kHostBadLength:
    case K::kHostMalformed:
    case K::kHostUnknownType:
    case K::kHostUnboundPort:
    case K::kSlackOverflow:
    case K::kFcRxOverflow:
    case K::kFcStrayData:
    case K::kSequenceAborted:
    case K::kFrameRejected:
      return effect(M::kDroppedOther);
  }
  return Evidence{};
}

ManifestationAnalyzer::ManifestationAnalyzer() : ManifestationAnalyzer(Config{}) {}

ManifestationAnalyzer::ManifestationAnalyzer(Config config)
    : config_(config) {}

void ManifestationAnalyzer::on_observation(const sim::Observation& o) {
  const Evidence e = evidence(o.kind);
  switch (e.role) {
    case Evidence::Role::kNone:
      return;
    case Evidence::Role::kInjection:
      record_injection(o.when);
      return;
    case Evidence::Role::kEffect:
      record_observation(o.when, e.what, source_of(o.where, o.unit));
      return;
  }
}

std::uint32_t ManifestationAnalyzer::source_of(std::string_view where,
                                               std::uint32_t unit) {
  for (std::size_t i = 0; i < emitters_.size(); ++i) {
    if (emitters_[i].second == unit && emitters_[i].first == where) {
      return static_cast<std::uint32_t>(i);
    }
  }
  emitters_.emplace_back(std::string(where), unit);
  return static_cast<std::uint32_t>(emitters_.size() - 1);
}

void ManifestationAnalyzer::record_injection(sim::SimTime when) {
  injections_.push_back(when);
}

void ManifestationAnalyzer::record_observation(sim::SimTime when,
                                               Manifestation what,
                                               std::uint32_t source) {
  // Coalesce line-rate repeats (same effect, same monitor, back to back)
  // into one episode. The scan is bounded: an episode chain keeps its last
  // element at the tail of the recent records, so checking a handful of
  // trailing entries finds it.
  if (config_.coalesce_interval > 0) {
    const std::size_t lookback = observations_.size() > 16
                                     ? observations_.size() - 16
                                     : 0;
    for (std::size_t i = observations_.size(); i-- > lookback;) {
      auto& prev = observations_[i];
      if (when - prev.when > config_.coalesce_interval) break;
      if (prev.what == what && prev.source == source) {
        prev.when = when;  // extend the episode
        return;
      }
    }
  }
  observations_.push_back(Observation{when, what, source});
}

ManifestationAnalyzer::Outcome ManifestationAnalyzer::finalize(
    sim::SimTime window_begin, sim::SimTime window_end,
    std::uint64_t expected_injections) const {
  std::vector<sim::SimTime> injs;
  injs.reserve(injections_.size());
  for (const auto t : injections_) {
    if (t > window_begin && t <= window_end) injs.push_back(t);
  }
  std::vector<Observation> obs;
  obs.reserve(observations_.size());
  for (const auto& o : observations_) {
    if (o.when > window_begin) obs.push_back(o);
  }
  // Simulation time is monotone, so both streams arrive sorted already;
  // stable_sort keeps equal-time records in recording order regardless.
  std::stable_sort(injs.begin(), injs.end());
  std::stable_sort(obs.begin(), obs.end(),
                   [](const Observation& a, const Observation& b) {
                     return a.when < b.when;
                   });

  Outcome out;
  // Greedy chronological assignment: injections ascending, each claims the
  // earliest unclaimed observation at or after it. Observations the scan
  // passes over can never match a later (even later-starting) injection,
  // so a single forward pointer suffices.
  std::size_t scan = 0;
  std::uint64_t matched = 0;
  for (const auto inj : injs) {
    while (scan < obs.size() && obs[scan].when < inj) ++scan;
    if (scan < obs.size() &&
        obs[scan].when - inj <= config_.correlation_window) {
      out.breakdown[obs[scan].what] += 1;
      out.latency.add(obs[scan].when - inj);
      ++matched;
      ++scan;
    }
    // else: masked, assigned below against the authoritative total.
  }
  out.secondary_effects = obs.size() - matched;

  // Reconcile against the device's own firing counter so the breakdown
  // sums to it exactly: firings whose timestamps we never saw are masked;
  // surplus timestamps (clock-edge disagreement, defensively) shed masked
  // first, then the most recent classes.
  const std::uint64_t seen = injs.size();
  if (expected_injections >= seen) {
    out.breakdown[Manifestation::kMasked] +=
        (seen - matched) + (expected_injections - seen);
  } else {
    std::uint64_t excess = seen - expected_injections;
    const std::uint64_t timestamp_masked = seen - matched;
    const std::uint64_t keep_masked =
        timestamp_masked > excess ? timestamp_masked - excess : 0;
    excess -= timestamp_masked - keep_masked;
    out.breakdown[Manifestation::kMasked] += keep_masked;
    for (std::size_t i = kManifestationCount; excess > 0 && i-- > 0;) {
      auto& c = out.breakdown.counts[i];
      const std::uint64_t cut = c < excess ? c : excess;
      c -= cut;
      excess -= cut;
    }
  }
  return out;
}

void ManifestationAnalyzer::clear() {
  injections_.clear();
  observations_.clear();
  emitters_.clear();
}

}  // namespace hsfi::analysis
