#include "control/runner.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "profiling/profiler.h"

namespace coolopt::control {
namespace {

struct Fixture {
  sim::MachineRoom room;
  profiling::RoomProfile profile;
  core::PlanEngine planner;
  ExperimentRunner runner;

  explicit Fixture(size_t n = 8, uint64_t seed = 51)
      : room([&] {
          sim::RoomConfig cfg;
          cfg.num_servers = n;
          cfg.seed = seed;
          return cfg;
        }()),
        profile(profiling::profile_room(room, profiling::ProfilingOptions::fast())),
        planner(profile.model, core::PlannerOptions{1.0}),
        runner(room, SetPointPlanner::from_profile(profile.cooler), profile.model) {}

  core::Plan plan(int scenario, double frac) {
    const double load = profile.model.total_capacity() * frac;
    auto p = planner.solve({core::Scenario::by_number(scenario), load}).plan;
    EXPECT_TRUE(p.has_value());
    return *p;
  }
};

TEST(ExperimentRunner, ActuatesPowerStatesAndLoads) {
  Fixture f;
  const core::Plan plan = f.plan(7, 0.4);  // consolidated
  const Measurement m = f.runner.run(plan);
  EXPECT_EQ(m.machines_on, plan.allocation.count_on());
  for (size_t i = 0; i < f.room.size(); ++i) {
    EXPECT_EQ(f.room.server(i).is_on(), static_cast<bool>(plan.allocation.on[i]));
    if (plan.allocation.on[i]) {
      EXPECT_NEAR(f.room.server(i).load_files_s(), plan.allocation.loads[i], 1e-6);
    }
  }
  EXPECT_NEAR(m.throughput_files_s, plan.load, 1e-6);
}

TEST(ExperimentRunner, TrimDrivesAchievedTacToPlan) {
  Fixture f;
  // High load keeps the coil active, so the plan's T_ac is reachable.
  const core::Plan plan = f.plan(6, 0.9);
  RunOptions options;
  options.setpoint_trims = 3;
  const Measurement m = f.runner.run(plan, options);
  ASSERT_GT(f.room.crac().cooling_rate_w(), 0.0);
  EXPECT_NEAR(m.t_ac_achieved_c, plan.allocation.t_ac, 0.1);
}

TEST(ExperimentRunner, NoTrimLeavesResidualBias) {
  Fixture f;
  const core::Plan plan = f.plan(6, 0.9);
  RunOptions no_trim;
  no_trim.setpoint_trims = 0;
  RunOptions trim;
  trim.setpoint_trims = 3;
  const double err_no_trim =
      std::abs(f.runner.run(plan, no_trim).t_ac_achieved_c - plan.allocation.t_ac);
  const double err_trim =
      std::abs(f.runner.run(plan, trim).t_ac_achieved_c - plan.allocation.t_ac);
  EXPECT_LE(err_trim, err_no_trim + 1e-9);
}

TEST(ExperimentRunner, TrimStopsWhenCoilIsOff) {
  // A light consolidated load can leave the room naturally cooler than the
  // planned (clamped) T_ac; the trim must not wind the set point upward
  // chasing an unreachable temperature. Cooler than planned is safe.
  Fixture f;
  const core::Plan plan = f.plan(8, 0.5);
  RunOptions a;
  a.setpoint_trims = 1;
  RunOptions b;
  b.setpoint_trims = 5;
  const Measurement ma = f.runner.run(plan, a);
  const Measurement mb = f.runner.run(plan, b);
  if (f.room.crac().cooling_rate_w() <= 1e-9) {
    EXPECT_NEAR(mb.t_sp_c, ma.t_sp_c, 1.1);  // no runaway knob-winding
    EXPECT_LE(mb.t_ac_achieved_c, plan.allocation.t_ac + 0.05);
  }
  EXPECT_FALSE(mb.temp_violation);
}

TEST(ExperimentRunner, FixedSetPointForNoAcScenarios) {
  Fixture f;
  const Measurement low = f.runner.run(f.plan(1, 0.2));
  const Measurement high = f.runner.run(f.plan(1, 0.9));
  EXPECT_DOUBLE_EQ(low.t_sp_c, f.runner.fixed_setpoint_c());
  EXPECT_DOUBLE_EQ(high.t_sp_c, f.runner.fixed_setpoint_c());
  // Same knob, different loads: achieved supply temp floats with the load.
  EXPECT_GT(low.t_ac_achieved_c, high.t_ac_achieved_c);
}

TEST(ExperimentRunner, MeasurementAccountingIsConsistent) {
  Fixture f;
  const Measurement m = f.runner.run(f.plan(4, 0.6));
  EXPECT_NEAR(m.total_power_w, m.it_power_w + m.crac_power_w, 1e-9);
  EXPECT_GT(m.it_power_w, 0.0);
  EXPECT_GT(m.crac_power_w, 0.0);
  EXPECT_FALSE(m.temp_violation);
  EXPECT_LE(m.peak_cpu_temp_c, f.profile.model.t_max + 1e-9);
}

TEST(ExperimentRunner, TransientModeAgreesWithSteadyState) {
  Fixture f;
  const core::Plan plan = f.plan(5, 0.5);
  const Measurement steady = f.runner.run(plan);
  RunOptions options;
  options.transient = true;
  options.transient_s = 4000.0;
  const Measurement transient = f.runner.run(plan, options);
  EXPECT_NEAR(transient.total_power_w, steady.total_power_w,
              steady.total_power_w * 0.02);
  EXPECT_NEAR(transient.t_ac_achieved_c, steady.t_ac_achieved_c, 0.3);
}

TEST(ExperimentRunner, SizeMismatchThrows) {
  Fixture f;
  core::Plan bad = f.plan(1, 0.5);
  bad.allocation.loads.pop_back();
  EXPECT_THROW(f.runner.run(bad), std::invalid_argument);
}

}  // namespace
}  // namespace coolopt::control
