#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace coolopt::obs {
namespace {

TEST(MetricsSnapshot, SequenceNumbersAreMonotonePerRegistry) {
  MetricsRegistry registry;
  registry.counter("a").inc();
  MetricsSnapshot s1;
  MetricsSnapshot s2;
  registry.snapshot(s1);
  registry.snapshot(s2);
  EXPECT_EQ(s1.sequence, 1u);
  EXPECT_EQ(s2.sequence, 2u);
  EXPECT_EQ(registry.snapshot_sequence(), 2u);
  // advance_sequence (the flush path) participates in the same ordering.
  EXPECT_EQ(registry.advance_sequence(), 3u);
  registry.snapshot(s1);
  EXPECT_EQ(s1.sequence, 4u);
}

TEST(MetricsSnapshot, CapturesEveryInstrumentSortedByName) {
  MetricsRegistry registry;
  registry.counter("z.count").inc(5);
  registry.counter("a.count").inc(1);
  registry.gauge("m.gauge").set(2.5);
  registry.histogram("h.lat").observe(10.0);

  MetricsSnapshot s;
  registry.snapshot(s);
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a.count");  // map order
  EXPECT_EQ(s.counters[1].first, "z.count");
  EXPECT_EQ(s.counters[1].second, 5u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 2.5);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(s.histograms[0].second.p50, 10.0);
}

TEST(TelemetryDelta, AgainstEmptySnapshotIsTheFullBaseline) {
  MetricsRegistry registry;
  registry.counter("c").inc(3);
  registry.gauge("g").set(1.0);
  registry.histogram("h").observe(5.0);
  MetricsSnapshot cur;
  registry.snapshot(cur);

  MetricsDelta delta;
  telemetry_delta(MetricsSnapshot{}, cur, delta);
  EXPECT_EQ(delta.from_sequence, 0u);
  EXPECT_EQ(delta.to_sequence, cur.sequence);
  ASSERT_EQ(delta.counters.size(), 1u);
  ASSERT_EQ(delta.gauges.size(), 1u);
  ASSERT_EQ(delta.histograms.size(), 1u);
}

TEST(TelemetryDelta, KeepsOnlyNewOrChangedEntries) {
  MetricsRegistry registry;
  registry.counter("stable").inc(10);
  registry.counter("moving").inc(1);
  registry.gauge("level").set(1.0);
  registry.histogram("lat").observe(1.0);
  MetricsSnapshot prev;
  registry.snapshot(prev);

  registry.counter("moving").inc(1);
  registry.counter("born").inc(1);  // new instrument between snapshots
  registry.histogram("lat").observe(2.0);
  MetricsSnapshot cur;
  registry.snapshot(cur);

  MetricsDelta delta;
  telemetry_delta(prev, cur, delta);
  ASSERT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters[0].first, "born");
  EXPECT_EQ(delta.counters[1].first, "moving");
  EXPECT_EQ(delta.counters[1].second, 2u);  // cumulative value, not a diff
  EXPECT_TRUE(delta.gauges.empty());        // unchanged gauge dropped
  ASSERT_EQ(delta.histograms.size(), 1u);   // count moved 1 -> 2
  EXPECT_EQ(delta.histograms[0].second.count, 2u);

  // No changes at all -> an empty delta (the broadcaster still ticks, the
  // line just carries no entries).
  MetricsSnapshot same;
  registry.snapshot(same);
  telemetry_delta(cur, same, delta);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.to_sequence, same.sequence);
}

}  // namespace
}  // namespace coolopt::obs
