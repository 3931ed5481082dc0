// Full-pipeline integration: simulate -> profile -> optimize -> actuate ->
// measure, asserting the paper's headline claims end to end.
#include <gtest/gtest.h>

#include "control/eval_engine.h"
#include "sim/workload.h"

namespace coolopt {
namespace {

control::EvalOptions testbed() {
  control::EvalOptions o;
  o.room.num_servers = 12;
  o.room.seed = 2012;  // the paper's year, why not
  return o;
}

class EndToEnd : public ::testing::Test {
 protected:
  static control::EvalEngine& eval() {
    // Shared across tests in this suite: profiling once is enough.
    static control::EvalEngine h(testbed());
    return h;
  }
};

TEST_F(EndToEnd, HolisticBeatsStandardPracticeSubstantially) {
  auto& h = eval();
  const auto base = h.measure(core::Scenario::by_number(1), 50.0);
  const auto opt = h.measure(core::Scenario::by_number(8), 50.0);
  ASSERT_TRUE(base.feasible && opt.feasible);
  const double saving = (base.measurement.total_power_w -
                         opt.measurement.total_power_w) /
                        base.measurement.total_power_w;
  EXPECT_GT(saving, 0.15);  // consolidation + AC control + optimal split
}

TEST_F(EndToEnd, HolisticNeverLosesToCoolJobAllocation) {
  auto& h = eval();
  for (const double pct : {20.0, 50.0, 80.0}) {
    const auto p7 = h.measure(core::Scenario::by_number(7), pct);
    const auto p8 = h.measure(core::Scenario::by_number(8), pct);
    ASSERT_TRUE(p7.feasible && p8.feasible);
    EXPECT_LE(p8.measurement.total_power_w,
              p7.measurement.total_power_w * 1.005)
        << "at " << pct << "%";
  }
}

TEST_F(EndToEnd, TemperatureConstraintHoldsEverywhere) {
  // Paper: "we also verified that the temperature constraints, Tmax, were
  // not violated for any of the CPUs."
  auto& h = eval();
  for (const core::Scenario& s : core::Scenario::all8()) {
    for (const double pct : {10.0, 40.0, 70.0, 100.0}) {
      const auto p = h.measure(s, pct);
      if (!p.feasible) continue;
      EXPECT_FALSE(p.measurement.temp_violation)
          << s.name() << " at " << pct << "%: peak "
          << p.measurement.peak_cpu_temp_c;
    }
  }
}

TEST_F(EndToEnd, ThroughputConstraintHolds) {
  // Paper: "application throughput was not affected by the energy saving
  // scheme." Drive a live job stream against the holistic plan and check
  // the served rate matches the offered load.
  auto& h = eval();
  const double demand = h.capacity_files_s() * 0.5;
  const auto plan =
      h.plan_engine()->solve({core::Scenario::by_number(8), demand}).plan;
  ASSERT_TRUE(plan.has_value());

  sim::MachineRoom& room = h.room();
  for (size_t i = 0; i < room.size(); ++i) {
    room.set_power_state(i, plan->allocation.on[i]);
  }
  sim::WorkloadDriver driver(room, demand, util::Rng(7));
  driver.apply_allocation(plan->allocation.loads);
  for (int step = 0; step < 2000; ++step) driver.step(1.0);
  EXPECT_NEAR(driver.stats().throughput_files_s(), demand, demand * 0.03);
}

TEST_F(EndToEnd, ModelPredictionsTrackMeasurements) {
  // The paper's adequacy claim: the simple fitted models predict the
  // system's energy behaviour well enough to optimize with. Compare the
  // plan's predicted total power to the measured one.
  auto& h = eval();
  for (const double pct : {30.0, 60.0, 90.0}) {
    const auto p = h.measure(core::Scenario::by_number(8), pct);
    ASSERT_TRUE(p.feasible);
    EXPECT_NEAR(p.plan.allocation.total_power_w, p.measurement.total_power_w,
                p.measurement.total_power_w * 0.12)
        << "at " << pct << "%";
  }
}

TEST_F(EndToEnd, ConsolidationCurveShape) {
  auto& h = eval();
  const auto low = h.measure(core::Scenario::by_number(8), 10.0);
  const auto full = h.measure(core::Scenario::by_number(8), 100.0);
  const auto low_nc = h.measure(core::Scenario::by_number(6), 10.0);
  const auto full_nc = h.measure(core::Scenario::by_number(6), 100.0);
  ASSERT_TRUE(low.feasible && full.feasible && low_nc.feasible && full_nc.feasible);
  // Big consolidation win at 10%, none at 100%.
  EXPECT_LT(low.measurement.total_power_w, 0.6 * low_nc.measurement.total_power_w);
  EXPECT_NEAR(full.measurement.total_power_w, full_nc.measurement.total_power_w,
              full_nc.measurement.total_power_w * 0.01);
}

TEST_F(EndToEnd, DeterministicAcrossRuns) {
  control::EvalEngine h1(testbed());
  control::EvalEngine h2(testbed());
  const auto a = h1.measure(core::Scenario::by_number(8), 40.0);
  const auto b = h2.measure(core::Scenario::by_number(8), 40.0);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_DOUBLE_EQ(a.measurement.total_power_w, b.measurement.total_power_w);
}

}  // namespace
}  // namespace coolopt
