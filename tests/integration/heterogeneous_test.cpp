// Heterogeneous-fleet pipeline (an extension the paper defers to future
// work): a room mixing old power-hungry nodes with new efficient ones,
// per-machine power fitting, and the LP-routed planner.
#include <gtest/gtest.h>

#include "control/adaptive.h"
#include "control/eval_engine.h"

namespace coolopt {
namespace {

sim::RoomConfig mixed_fleet_room() {
  sim::RoomConfig cfg;
  cfg.seed = 2024;

  sim::ServerConfig old_node;  // power-hungry, slower
  old_node.idle_power_w = 58.0;
  old_node.peak_delta_w = 85.0;
  old_node.capacity_files_s = 34.0;

  sim::ServerConfig new_node;  // efficient, faster
  new_node.idle_power_w = 28.0;
  new_node.peak_delta_w = 48.0;
  new_node.capacity_files_s = 46.0;

  cfg.fleet = {{old_node, 6}, {new_node, 6}};
  return cfg;
}

control::EvalOptions mixed_options() {
  control::EvalOptions o;
  o.room = mixed_fleet_room();
  o.profiling.heterogeneous_power = true;
  return o;
}

class Heterogeneous : public ::testing::Test {
 protected:
  static control::EvalEngine& eval() {
    static control::EvalEngine h(mixed_options());
    return h;
  }
};

TEST_F(Heterogeneous, RoomBuildsBothClasses) {
  sim::MachineRoom room(mixed_fleet_room());
  ASSERT_EQ(room.size(), 12u);
  // Block order: first six old, last six new.
  EXPECT_GT(room.server(0).truth().idle_power_w, 50.0);
  EXPECT_LT(room.server(11).truth().idle_power_w, 32.0);
  EXPECT_LT(room.server(0).truth().capacity_files_s,
            room.server(11).truth().capacity_files_s);
}

TEST_F(Heterogeneous, PerMachineFitsRecoverBothClasses) {
  const auto& profile = eval().profile();
  ASSERT_EQ(profile.power.per_machine_models.size(), 12u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(profile.power.per_machine_models[i].w2, 58.0, 4.0)
        << "old node " << i;
    EXPECT_NEAR(profile.power.per_machine_models[i].w1, 85.0 / 34.0, 0.25)
        << "old node " << i;
  }
  for (size_t i = 6; i < 12; ++i) {
    EXPECT_NEAR(profile.power.per_machine_models[i].w2, 28.0, 3.0)
        << "new node " << i;
    EXPECT_NEAR(profile.power.per_machine_models[i].w1, 48.0 / 46.0, 0.2)
        << "new node " << i;
  }
}

TEST_F(Heterogeneous, PlannerRoutesThroughTheLp) {
  EXPECT_FALSE(eval().model().uniform_w1());
  EXPECT_FALSE(eval().plan_engine()->exact_paths());
}

TEST_F(Heterogeneous, OptimalPrefersEfficientMachines) {
  auto& h = eval();
  const auto point = h.measure(core::Scenario::by_number(6), 50.0);
  ASSERT_TRUE(point.feasible);
  double old_util = 0.0;
  double new_util = 0.0;
  const auto& model = h.model();
  for (size_t i = 0; i < 6; ++i) {
    old_util += point.plan.allocation.loads[i] / model.machines[i].capacity;
    new_util +=
        point.plan.allocation.loads[i + 6] / model.machines[i + 6].capacity;
  }
  // The LP shifts work toward the low-w1 machines.
  EXPECT_GT(new_util, old_util + 0.5);
}

TEST_F(Heterogeneous, ConsolidationShutsOldNodesFirst) {
  auto& h = eval();
  const auto point = h.measure(core::Scenario::by_number(8), 35.0);
  ASSERT_TRUE(point.feasible);
  size_t old_on = 0;
  size_t new_on = 0;
  for (size_t i = 0; i < 6; ++i) {
    old_on += point.plan.allocation.on[i];
    new_on += point.plan.allocation.on[i + 6];
  }
  EXPECT_GT(new_on, old_on);
  EXPECT_LT(point.measurement.machines_on, 12u);
}

TEST_F(Heterogeneous, EndToEndSavingsAndSafety) {
  auto& h = eval();
  for (const double pct : {25.0, 50.0, 75.0}) {
    const auto p1 = h.measure(core::Scenario::by_number(1), pct);
    const auto p8 = h.measure(core::Scenario::by_number(8), pct);
    ASSERT_TRUE(p1.feasible && p8.feasible);
    EXPECT_LT(p8.measurement.total_power_w, p1.measurement.total_power_w)
        << "at " << pct << "%";
    EXPECT_FALSE(p8.measurement.temp_violation);
    EXPECT_NEAR(p8.measurement.throughput_files_s,
                h.capacity_files_s() * pct / 100.0, 1e-6);
  }
}

TEST_F(Heterogeneous, AllScenariosStillPlan) {
  auto& h = eval();
  for (const core::Scenario& s : core::Scenario::all8()) {
    const auto point = h.measure(s, 55.0);
    EXPECT_TRUE(point.feasible) << s.name();
    if (point.feasible) {
      EXPECT_FALSE(point.measurement.temp_violation) << s.name();
    }
  }
}

}  // namespace
}  // namespace coolopt

namespace coolopt {
namespace {

TEST_F(Heterogeneous, AdaptiveControllerRunsOnTheLpPath) {
  // The live controller must work end to end on a mixed fleet (every
  // replan and rebalance goes through the LP).
  sim::MachineRoom room(mixed_fleet_room());
  auto opts = profiling::ProfilingOptions::fast();
  opts.heterogeneous_power = true;
  const auto profile = profiling::profile_room(room, opts);

  control::AdaptiveOptions ctl_opts;
  ctl_opts.min_dwell_s = 300.0;
  control::AdaptiveController ctl(
      room, profile.model,
      control::SetPointPlanner::from_profile(profile.cooler), ctl_opts);

  const double capacity = profile.model.total_capacity();
  double worst = 0.0;
  for (int minute = 0; minute < 40; ++minute) {
    const double demand =
        capacity * (0.3 + 0.4 * (minute % 20) / 20.0);  // sawtooth ramp
    ctl.update(demand);
    room.run(60.0, 1.0);
    for (size_t i = 0; i < room.size(); ++i) {
      if (room.server(i).is_on()) {
        worst = std::max(worst, room.true_cpu_temp_c(i));
      }
    }
    EXPECT_NEAR(room.throughput_files_s(), demand, 1e-6);
  }
  EXPECT_LE(worst, profile.model.t_max + 0.5);
  EXPECT_GT(ctl.stats().full_replans, 1u);
}

}  // namespace
}  // namespace coolopt
