// EvalEngine contract tests: the profiling campaign runs exactly once, a
// parallel sweep is bit-for-bit identical to the serial loop, the memo
// cache replays identical points, and fault injection never pollutes the
// clean cache. Labelled `eval` in ctest and run under the tsan preset.
#include "control/eval_engine.h"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace coolopt::control {
namespace {

EvalOptions small() {
  EvalOptions o;
  o.room.num_servers = 8;
  o.room.seed = 61;
  return o;
}

std::vector<core::Scenario> scenario_set() {
  return {core::Scenario::by_number(1), core::Scenario::by_number(6),
          core::Scenario::by_number(8)};
}

// The fractional loads would have collided under integer keying.
std::vector<double> load_set() { return {12.5, 12.9, 30.0, 55.0, 80.0}; }

void expect_points_equal(const EvalPoint& a, const EvalPoint& b) {
  ASSERT_EQ(a.scenario.number, b.scenario.number);
  EXPECT_EQ(a.load_pct, b.load_pct);
  ASSERT_EQ(a.feasible, b.feasible);
  if (!a.feasible) return;
  // Exact equality on doubles is the point: any divergence between worker
  // schedules or cache replays is a determinism bug.
  EXPECT_EQ(a.measurement.total_power_w, b.measurement.total_power_w);
  EXPECT_EQ(a.measurement.it_power_w, b.measurement.it_power_w);
  EXPECT_EQ(a.measurement.crac_power_w, b.measurement.crac_power_w);
  EXPECT_EQ(a.measurement.peak_cpu_temp_c, b.measurement.peak_cpu_temp_c);
  EXPECT_EQ(a.measurement.t_ac_achieved_c, b.measurement.t_ac_achieved_c);
  EXPECT_EQ(a.measurement.machines_on, b.measurement.machines_on);
  EXPECT_EQ(a.plan.allocation.t_ac, b.plan.allocation.t_ac);
  EXPECT_EQ(a.plan.allocation.loads, b.plan.allocation.loads);
  EXPECT_EQ(a.plan.allocation.on, b.plan.allocation.on);
}

TEST(EvalEngine, ProfilesExactlyOnceAcrossMeasuresAndSweeps) {
  EvalEngine engine(small());
  EXPECT_EQ(engine.counters().profiles, 0u);  // lazy until first use

  engine.measure(core::Scenario::by_number(8), 50.0);
  engine.measure(core::Scenario::by_number(1), 30.0);
  engine.sweep(scenario_set(), {20.0, 60.0});
  engine.sweep(scenario_set(), {20.0, 60.0}, 8);
  (void)engine.model();
  (void)engine.plan_engine();

  EXPECT_EQ(engine.counters().profiles, 1u);
}

TEST(EvalEngine, ParallelSweepIsBitForBitSerial) {
  const auto scenarios = scenario_set();
  const auto loads = load_set();

  // A fresh engine per worker count: no shared cache can mask divergence.
  std::vector<std::vector<EvalPoint>> runs;
  for (const size_t workers : {1u, 2u, 8u}) {
    EvalEngine engine(small());
    runs.push_back(engine.sweep(scenarios, loads, workers));
  }

  ASSERT_EQ(runs[0].size(), scenarios.size() * loads.size());
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      expect_points_equal(runs[0][i], runs[r][i]);
    }
  }
}

TEST(EvalEngine, MemoizedMeasureReplaysTheIdenticalPoint) {
  EvalEngine engine(small());
  const core::Scenario s = core::Scenario::by_number(6);
  const EvalPoint first = engine.measure(s, 55.0);
  const EvalCounters after_first = engine.counters();
  EXPECT_EQ(after_first.cache_misses, 1u);

  const EvalPoint second = engine.measure(s, 55.0);
  expect_points_equal(first, second);

  const EvalCounters after_second = engine.counters();
  EXPECT_EQ(after_second.cache_hits, after_first.cache_hits + 1);
  EXPECT_EQ(after_second.measures, after_first.measures);  // nothing re-ran

  // A different load is a different key — no false sharing.
  engine.measure(s, 55.5);
  EXPECT_EQ(engine.counters().cache_misses, 2u);
}

TEST(EvalEngine, DistinctRunOptionsAreDistinctCacheEntries) {
  EvalEngine engine(small());
  const core::Scenario s = core::Scenario::by_number(8);
  engine.measure(s, 40.0);
  RunOptions transient;
  transient.transient = true;
  transient.transient_s = 200.0;
  engine.measure(s, 40.0, transient);
  EXPECT_EQ(engine.counters().cache_misses, 2u);
  EXPECT_EQ(engine.counters().cache_hits, 0u);
}

TEST(EvalEngine, FaultedMeasuresNeverPolluteTheCleanCache) {
  EvalEngine engine(small());
  const core::Scenario s = core::Scenario::by_number(6);
  const double pct = 70.0;

  const EvalPoint clean = engine.measure(s, pct);
  ASSERT_TRUE(clean.feasible);
  EXPECT_EQ(clean.observed_peak_cpu_c, 0.0);  // clean measures skip sensors

  sim::FaultPlan faults;
  faults.failed_fans = {0};
  faults.temp_sensor_stuck_prob = 0.2;
  const EvalPoint faulted = engine.measure_faulted(s, pct, faults);
  ASSERT_TRUE(faulted.feasible);
  // A dead fan heats the machine well past the healthy operating point.
  EXPECT_GT(faulted.measurement.peak_cpu_temp_c,
            clean.measurement.peak_cpu_temp_c + 2.0);
  // The faulted point reads the (possibly stuck) instruments.
  EXPECT_GT(faulted.observed_peak_cpu_c, 0.0);

  // Re-measuring clean is a cache hit and replays the healthy point.
  const EvalCounters before = engine.counters();
  const EvalPoint replay = engine.measure(s, pct);
  expect_points_equal(clean, replay);
  EXPECT_EQ(engine.counters().cache_hits, before.cache_hits + 1);
  EXPECT_EQ(engine.counters().faulted_measures, 1u);
}

TEST(EvalEngine, BatchServesCachedPointsWithoutReMeasuring) {
  EvalEngine engine(small());
  const auto scenarios = scenario_set();
  const auto loads = load_set();
  const auto first = engine.sweep(scenarios, loads);
  const uint64_t measured = engine.counters().measures;

  const auto second = engine.sweep(scenarios, loads, 8);
  EXPECT_EQ(engine.counters().measures, measured);  // all 15 were hits
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    expect_points_equal(first[i], second[i]);
  }
}

TEST(EvalEngine, RejectsInvalidConfigAndLoads) {
  EvalOptions bad = small();
  bad.room.num_servers = 0;
  EXPECT_THROW(EvalEngine{bad}, std::invalid_argument);

  EvalEngine engine(small());
  EXPECT_THROW(engine.measure(core::Scenario::by_number(8), -5.0),
               std::invalid_argument);
  EXPECT_THROW(engine.measure(core::Scenario::by_number(8), 150.0),
               std::invalid_argument);
}

TEST(EvalEngine, EmitsTheEvalMetricsFamily) {
  obs::MetricsRegistry registry;
  {
    obs::ScopedObservation scope(&registry);
    EvalEngine engine(small());
    engine.measure(core::Scenario::by_number(8), 50.0);
    engine.measure(core::Scenario::by_number(8), 50.0);
    engine.sweep({core::Scenario::by_number(6)}, {30.0, 60.0}, 2);
  }
  EXPECT_EQ(registry.counter("eval.profiles").value(), 1u);
  EXPECT_EQ(registry.counter("eval.measures").value(), 3u);
  EXPECT_EQ(registry.counter("eval.cache.hit").value(), 1u);
  EXPECT_EQ(registry.counter("eval.cache.miss").value(), 3u);
  EXPECT_EQ(registry.counter("eval.sweep.sweeps").value(), 1u);
  EXPECT_EQ(registry.counter("eval.sweep.points").value(), 2u);
  EXPECT_GE(registry.gauge("eval.rooms").value(), 1.0);
}

/// Each EvalCounters field and the registry instrument its event site
/// bumps (rooms_built is reported as the `eval.rooms` gauge).
struct CounterMetric {
  const char* metric;
  uint64_t EvalCounters::*field;
};

constexpr CounterMetric kEvalCounterMetrics[] = {
    {"eval.profiles", &EvalCounters::profiles},
    {"eval.measures", &EvalCounters::measures},
    {"eval.infeasible", &EvalCounters::infeasible},
    {"eval.cache.hit", &EvalCounters::cache_hits},
    {"eval.cache.miss", &EvalCounters::cache_misses},
    {"eval.faulted_measures", &EvalCounters::faulted_measures},
    {"eval.sweep.sweeps", &EvalCounters::sweeps},
    {"eval.sweep.points", &EvalCounters::sweep_points},
};
static_assert((std::size(kEvalCounterMetrics) + 1) * sizeof(uint64_t) ==
                  sizeof(EvalCounters),
              "every EvalCounters field but rooms_built has a row");

TEST(EvalEngine, EveryCounterMatchesItsRegistryMetric) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  EvalOptions options = small();
  // A ceiling margin so deep that full load is thermally unservable: the
  // degraded plan is not a measurement, so that point counts as infeasible.
  options.planner.t_max_margin = 12.0;
  EvalEngine engine(options);
  engine.measure(core::Scenario::by_number(8), 40.0);
  engine.measure(core::Scenario::by_number(8), 40.0);  // cache hit
  EXPECT_FALSE(engine.measure(core::Scenario::by_number(6), 100.0).feasible);
  sim::FaultPlan faults;
  faults.failed_fans = {0};
  engine.measure_faulted(core::Scenario::by_number(6), 30.0, faults);
  engine.sweep(scenario_set(), {20.0, 60.0}, 2);

  const EvalCounters counters = engine.counters();
  for (const CounterMetric& row : kEvalCounterMetrics) {
    EXPECT_EQ(counters.*row.field, registry.counter(row.metric).value())
        << row.metric;
    EXPECT_GT(counters.*row.field, 0u) << row.metric << " never fired";
  }
  EXPECT_EQ(static_cast<double>(counters.rooms_built),
            registry.gauge("eval.rooms").value());
  EXPECT_GT(counters.rooms_built, 0u);
}

}  // namespace
}  // namespace coolopt::control
