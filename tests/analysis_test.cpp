// Unit tests for the manifestation-analysis subsystem: the taxonomy,
// breakdown arithmetic, histograms, and the analyzer's
// chronological correlation (matching, masking, windows, coalescing,
// reconciliation against the authoritative firing count).
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/manifestation.hpp"
#include "analysis/metrics.hpp"

namespace hsfi::analysis {
namespace {

TEST(ManifestationTest, NamesAndKeysAreStable) {
  EXPECT_EQ(to_string(Manifestation::kMasked), "masked");
  EXPECT_EQ(to_string(Manifestation::kCrcDropped), "crc_dropped");
  EXPECT_EQ(to_string(Manifestation::kPayloadCorruptedDelivered),
            "payload_corrupted_delivered");
  EXPECT_EQ(jsonl_key(Manifestation::kTimeout), "m_timeout");
  EXPECT_EQ(jsonl_key(Manifestation::kMappingDisruption),
            "m_mapping_disruption");
  // Every class has a distinct name and key.
  for (const auto a : all_manifestations()) {
    for (const auto b : all_manifestations()) {
      if (a == b) continue;
      EXPECT_NE(to_string(a), to_string(b));
      EXPECT_NE(jsonl_key(a), jsonl_key(b));
    }
  }
}

TEST(ManifestationTest, BreakdownSumsAndAccumulates) {
  ManifestationBreakdown b;
  EXPECT_EQ(b.total(), 0u);
  b[Manifestation::kCrcDropped] = 3;
  b[Manifestation::kMasked] = 2;
  EXPECT_EQ(b.total(), 5u);

  ManifestationBreakdown c;
  c[Manifestation::kCrcDropped] = 1;
  c[Manifestation::kTimeout] = 4;
  b += c;
  EXPECT_EQ(b[Manifestation::kCrcDropped], 4u);
  EXPECT_EQ(b[Manifestation::kTimeout], 4u);
  EXPECT_EQ(b.total(), 10u);
}

TEST(ManifestationTest, DescribeLeadsWithFailuresAndMaskedLast) {
  ManifestationBreakdown b;
  EXPECT_EQ(describe(b), "-");
  b[Manifestation::kMasked] = 7;
  b[Manifestation::kCrcDropped] = 2;
  EXPECT_EQ(describe(b), "crc_dropped:2 masked:7");
}

TEST(HistogramTest, BucketsValuesAtInclusiveUpperBounds) {
  Histogram h({sim::microseconds(1), sim::milliseconds(1)});
  h.add(sim::microseconds(1));   // == first bound: first bucket
  h.add(sim::microseconds(2));   // second bucket
  h.add(sim::milliseconds(5));   // overflow bucket
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), sim::microseconds(1));
  EXPECT_EQ(h.max(), sim::milliseconds(5));
}

TEST(HistogramTest, MergeAccumulatesMatchingBounds) {
  Histogram a({sim::microseconds(1)});
  Histogram b({sim::microseconds(1)});
  a.add(sim::nanoseconds(100));
  b.add(sim::microseconds(9));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), sim::nanoseconds(100));
  EXPECT_EQ(a.max(), sim::microseconds(9));
  // Mismatched bounds are ignored rather than mixed.
  Histogram c({sim::milliseconds(1)});
  c.add(sim::microseconds(1));
  a.merge(c);
  EXPECT_EQ(a.count(), 2u);
}

TEST(AnalyzerTest, MatchesEachInjectionToEarliestFollowingObservation) {
  ManifestationAnalyzer a;
  a.record_injection(sim::milliseconds(10));
  a.record_injection(sim::milliseconds(20));
  a.record_observation(sim::milliseconds(11), Manifestation::kCrcDropped);
  a.record_observation(sim::milliseconds(21), Manifestation::kTimeout);
  const auto out = a.finalize(0, sim::milliseconds(100), 2);
  EXPECT_EQ(out.breakdown[Manifestation::kCrcDropped], 1u);
  EXPECT_EQ(out.breakdown[Manifestation::kTimeout], 1u);
  EXPECT_EQ(out.breakdown[Manifestation::kMasked], 0u);
  EXPECT_EQ(out.breakdown.total(), 2u);
  EXPECT_EQ(out.secondary_effects, 0u);
  EXPECT_EQ(out.latency.count(), 2u);
  EXPECT_EQ(out.latency.max(), sim::milliseconds(1));
}

TEST(AnalyzerTest, UnmatchedInjectionIsMaskedAndExtraObservationIsSecondary) {
  ManifestationAnalyzer a;
  a.record_injection(sim::milliseconds(10));
  a.record_injection(sim::milliseconds(20));
  // One firing cascades into two effects; the second firing shows nothing.
  a.record_observation(sim::milliseconds(11), Manifestation::kCrcDropped, 1);
  a.record_observation(sim::milliseconds(12), Manifestation::kDroppedOther, 2);
  const auto out = a.finalize(0, sim::milliseconds(100), 2);
  EXPECT_EQ(out.breakdown[Manifestation::kCrcDropped], 1u);
  // ms 12 observation precedes the ms 20 injection, so it can never match:
  // it is a cascade (secondary), and injection 2 is masked.
  EXPECT_EQ(out.breakdown[Manifestation::kDroppedOther], 0u);
  EXPECT_EQ(out.breakdown[Manifestation::kMasked], 1u);
  EXPECT_EQ(out.breakdown.total(), 2u);
  EXPECT_EQ(out.secondary_effects, 1u);
}

TEST(AnalyzerTest, CorrelationWindowBoundsAttribution) {
  ManifestationAnalyzer::Config cfg;
  cfg.correlation_window = sim::milliseconds(5);
  ManifestationAnalyzer a(cfg);
  a.record_injection(sim::milliseconds(10));
  a.record_observation(sim::milliseconds(16), Manifestation::kCrcDropped);
  const auto out = a.finalize(0, sim::milliseconds(100), 1);
  EXPECT_EQ(out.breakdown[Manifestation::kMasked], 1u);
  EXPECT_EQ(out.breakdown.total(), 1u);
  EXPECT_EQ(out.secondary_effects, 1u);
}

TEST(AnalyzerTest, MeasurementWindowFiltersBothStreams) {
  ManifestationAnalyzer a;
  // Before the window (exactly at begin is excluded, matching snapshot
  // delta semantics) and after the end: both ignored.
  a.record_injection(sim::milliseconds(10));
  a.record_injection(sim::milliseconds(50));
  a.record_injection(sim::milliseconds(200));
  a.record_observation(sim::milliseconds(9), Manifestation::kCrcDropped);
  a.record_observation(sim::milliseconds(51), Manifestation::kTimeout);
  const auto out =
      a.finalize(sim::milliseconds(10), sim::milliseconds(100), 1);
  EXPECT_EQ(out.breakdown[Manifestation::kTimeout], 1u);
  EXPECT_EQ(out.breakdown.total(), 1u);
  EXPECT_EQ(out.secondary_effects, 0u);
}

TEST(AnalyzerTest, ReconciliationPadsMaskedToExpectedCount) {
  ManifestationAnalyzer a;
  a.record_injection(sim::milliseconds(10));
  a.record_observation(sim::milliseconds(11), Manifestation::kMarkerError);
  // The device's own counter says 4 firings; 3 timestamps never surfaced.
  const auto out = a.finalize(0, sim::milliseconds(100), 4);
  EXPECT_EQ(out.breakdown[Manifestation::kMarkerError], 1u);
  EXPECT_EQ(out.breakdown[Manifestation::kMasked], 3u);
  EXPECT_EQ(out.breakdown.total(), 4u);
}

TEST(AnalyzerTest, ReconciliationClampsSurplusTimestamps) {
  ManifestationAnalyzer a;
  a.record_injection(sim::milliseconds(10));
  a.record_injection(sim::milliseconds(20));
  a.record_injection(sim::milliseconds(30));
  a.record_observation(sim::milliseconds(11), Manifestation::kCrcDropped);
  // Counter delta says only 2 firings happened in the window.
  const auto out = a.finalize(0, sim::milliseconds(100), 2);
  EXPECT_EQ(out.breakdown.total(), 2u);
  EXPECT_EQ(out.breakdown[Manifestation::kCrcDropped], 1u);
  EXPECT_EQ(out.breakdown[Manifestation::kMasked], 1u);
}

TEST(AnalyzerTest, CoalescesLineRateRepeatsFromOneSource) {
  ManifestationAnalyzer a;
  // A slack overflow drops symbols every 12.5 ns; one episode, not 100
  // observations.
  for (int i = 0; i < 100; ++i) {
    a.record_observation(sim::milliseconds(10) + i * sim::picoseconds(12'500),
                         Manifestation::kDroppedOther, 200);
  }
  EXPECT_EQ(a.observations_recorded(), 1u);
  // A different source at the same time is kept separate.
  a.record_observation(sim::milliseconds(10), Manifestation::kDroppedOther,
                       201);
  EXPECT_EQ(a.observations_recorded(), 2u);
  // A gap wider than the coalesce interval starts a new episode.
  a.record_observation(sim::milliseconds(12), Manifestation::kDroppedOther,
                       200);
  EXPECT_EQ(a.observations_recorded(), 3u);
}

TEST(AnalyzerTest, ClearDropsAllState) {
  ManifestationAnalyzer a;
  a.record_injection(sim::milliseconds(1));
  a.record_observation(sim::milliseconds(2), Manifestation::kCrcDropped);
  a.clear();
  EXPECT_EQ(a.injections_recorded(), 0u);
  EXPECT_EQ(a.observations_recorded(), 0u);
  const auto out = a.finalize(0, sim::milliseconds(100), 0);
  EXPECT_EQ(out.breakdown.total(), 0u);
}

}  // namespace
}  // namespace hsfi::analysis
