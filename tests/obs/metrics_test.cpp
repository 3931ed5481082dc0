#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "service/wire.h"
#include "util/strings.h"

namespace coolopt::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsLastValue) {
  Gauge g;
  g.set(3.5);
  g.set(-7.25);
  EXPECT_DOUBLE_EQ(g.value(), -7.25);
}

TEST(Histogram, PercentilesAreExactUnderTheSampleCap) {
  Histogram h;
  // 1..101 inserted out of order; rank p/100*(n-1) lands on integers.
  for (int v = 101; v >= 1; --v) h.observe(static_cast<double>(v));
  EXPECT_EQ(h.count(), 101u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 51.0);
  EXPECT_DOUBLE_EQ(h.percentile(95.0), 96.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 101.0);
  // Interpolation between ranks: p25 of 0..100 over 101 samples is exact,
  // p between grid points interpolates linearly.
  EXPECT_NEAR(h.percentile(49.5), 50.5, 1e-9);

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.mean, 51.0);
  EXPECT_DOUBLE_EQ(s.p50, 51.0);
  EXPECT_DOUBLE_EQ(s.p95, 96.0);
  EXPECT_DOUBLE_EQ(s.p99, 100.0);
}

TEST(Histogram, PercentileRejectsOutOfRangeP) {
  Histogram h;
  h.observe(1.0);
  EXPECT_THROW(h.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW(h.percentile(100.5), std::invalid_argument);
}

TEST(Histogram, EmptyHistogramSnapshotsToZeros) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(Histogram, ReservoirKeepsExactAggregatesBeyondTheCap) {
  Histogram h(/*sample_cap=*/64);
  const int n = 10000;
  double sum = 0.0;
  for (int i = 1; i <= n; ++i) {
    h.observe(static_cast<double>(i));
    sum += i;
  }
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(n));
  EXPECT_DOUBLE_EQ(s.sum, sum);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(n));
  // The reservoir subsample is uniform; its median should land in the bulk
  // of the uniform distribution (loose bound, deterministic LCG stream).
  EXPECT_GT(s.p50, 0.1 * n);
  EXPECT_LT(s.p50, 0.9 * n);
}

TEST(Histogram, RetentionIsBoundedAndSnapshotPercentilesAreExact) {
  // A served daemon feeds several histograms per request, so retention is
  // capped at kPercentileBudget samples no matter how many observations
  // arrive; snapshot() then interpolates over every retained sample, so its
  // percentiles equal the exact accessor at every count.
  Histogram h;
  const size_t n = 1000000;
  const auto check = [&](size_t count) {
    const HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, static_cast<uint64_t>(count));
    EXPECT_EQ(s.p50, h.percentile(50.0)) << count;
    EXPECT_EQ(s.p95, h.percentile(95.0)) << count;
    EXPECT_EQ(s.p99, h.percentile(99.0)) << count;
  };
  size_t next_check = 1;
  for (size_t i = 1; i <= n; ++i) {
    h.observe(static_cast<double>((i * 7919) % 10007));
    EXPECT_LE(h.retained(), Histogram::kPercentileBudget);
    if (i == next_check || i == Histogram::kPercentileBudget ||
        i == Histogram::kPercentileBudget + 1) {
      check(i);
      if (i == next_check) next_check *= 3;
    }
  }
  check(n);
  EXPECT_EQ(h.retained(), Histogram::kPercentileBudget);

  // Aggregates stay exact past the cap.
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 10006.0);

  // A larger requested cap is clamped to the budget.
  Histogram wide(/*sample_cap=*/1 << 20);
  for (size_t i = 0; i < 2 * Histogram::kPercentileBudget; ++i) {
    wide.observe(static_cast<double>(i));
  }
  EXPECT_EQ(wide.retained(), Histogram::kPercentileBudget);
}

TEST(Histogram, PercentileInterpolationIsExactAtTheReservoirBoundary) {
  // Regression pin for the cap boundary: with exactly sample_cap samples
  // retained, percentiles still interpolate over the EXACT sample set (the
  // reservoir only starts replacing on observation cap+1).
  Histogram h(/*sample_cap=*/8);
  for (int v = 1; v <= 8; ++v) h.observe(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 4.5);    // rank 3.5 over 1..8
  EXPECT_DOUBLE_EQ(h.percentile(95.0), 7.65);   // rank 6.65
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 7.93);   // rank 6.93
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 8.0);

  // Observation cap+1 crosses into the reservoir. Algorithm R's slot choice
  // is a pure function of the published LCG constants, so the retained set
  // is pinned: replay the step here and assert the exact post-switch p50.
  h.observe(9.0);
  const uint64_t lcg =
      Histogram::kLcgSeed * 6364136223846793005ull + 1442695040888963407ull;
  const uint64_t slot = (lcg >> 16) % 9;  // count_ == 9 at the draw
  std::vector<double> expected{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  if (slot < 8) expected[slot] = 9.0;
  std::sort(expected.begin(), expected.end());
  const double rank = 0.5 * 7.0;
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double want_p50 =
      expected[lo] * (1.0 - frac) + expected[lo + 1] * frac;
  EXPECT_DOUBLE_EQ(h.percentile(50.0), want_p50);
  EXPECT_EQ(h.count(), 9u);  // aggregates stay exact past the switch
  EXPECT_DOUBLE_EQ(h.snapshot().max, 9.0);
}

TEST(MetricsRegistry, ConcurrentIncrementsFromMultipleThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("shared.counter").inc();
        registry.histogram("shared.hist").observe(static_cast<double>(t));
        registry.gauge("shared.gauge").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.counter("shared.counter").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.histogram("shared.hist").count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const HistogramSnapshot s = registry.histogram("shared.hist").snapshot();
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, kThreads - 1.0);
}

TEST(MetricsRegistry, InstrumentReferencesStayValid) {
  MetricsRegistry registry;
  Counter& first = registry.counter("a");
  first.inc();
  // Creating more instruments must not invalidate the reference.
  for (int i = 0; i < 100; ++i) registry.counter(util::strf("c%d", i));
  first.inc();
  EXPECT_EQ(registry.counter("a").value(), 2u);
  EXPECT_EQ(&registry.counter("a"), &first);
}

TEST(MetricsRegistry, JsonExportIsSyntaxValidAndComplete) {
  MetricsRegistry registry;
  registry.counter("optimizer.lp.solves").inc(3);
  registry.gauge("engine.alloc_bytes").set(12.0);
  registry.histogram("optimizer.lp.solve_us").observe(100.0);
  registry.histogram("optimizer.lp.solve_us").observe(200.0);

  std::ostringstream os;
  registry.to_json(os);
  const std::string doc = os.str();
  service::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(service::parse_json(doc, parsed, error)) << error;
  EXPECT_NE(doc.find("\"optimizer.lp.solves\":3"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"engine.alloc_bytes\":12"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"p50\""), std::string::npos) << doc;
}

}  // namespace
}  // namespace coolopt::obs
