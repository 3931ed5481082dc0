// The bounded solver against its two oracles: the dense simplex LP (whose
// objective omits the cooler's q_coeff term and floor, so its plans bound
// the optimum from above) and a 20,001-point T_ac grid over the same ON set
// filled in ascending w1. On every room below, each bounded plan passes the
// feasibility audit and its finalize() total is at most 1e-9 (relative)
// above both oracles' totals.
#include "core/bounded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "control/eval_engine.h"
#include "core/closed_form.h"
#include "core/synthetic.h"
#include "core/verification.h"
#include "tests/core/consolidation_support.h"
#include "tests/core/on_set_support.h"
#include "tests/oracle/lp_optimizer.h"
#include "tests/oracle/tac_grid.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

using test_support::all_machines;
using test_support::CoolerVariant;
using test_support::kCoolerVariants;
using test_support::with_cooler;

constexpr double kRel = 1e-9;

/// Solves (room, on, load) and checks the plan against both oracles.
/// Returns the bounded plan's total (NaN when infeasible).
double check_against_oracles(const RoomModel& room,
                             const std::vector<size_t>& on, double load,
                             const std::string& what) {
  SCOPED_TRACE(what);
  const BoundedOptimizer bounded(share_model(room));
  BoundedWorkspace ws;
  Allocation plan;
  const bool ok = bounded.solve_into(on.data(), on.size(), load, ws, plan);
  const std::optional<Allocation> lp = LpOptimizer(room).solve(on, load);
  const std::optional<Allocation> grid = tac_grid_best(room, on, load);
  EXPECT_EQ(ok, lp.has_value());
  if (!ok) {
    EXPECT_FALSE(grid.has_value());
    return std::nan("");
  }
  const std::vector<FeasibilityIssue> issues =
      audit_feasibility(room, plan, load);
  EXPECT_TRUE(issues.empty()) << issues.front().describe();
  const double total = plan.total_power_w;
  if (lp) {
    EXPECT_LE(total, lp->total_power_w * (1.0 + kRel))
        << "LP " << lp->total_power_w;
  }
  if (grid) {
    EXPECT_LE(total, grid->total_power_w * (1.0 + kRel))
        << "grid " << grid->total_power_w;
  }
  return total;
}

/// examples/mixed_fleet's room: 10 old, hungry nodes and 10 new, efficient
/// ones, profiled from the simulator with per-machine power models.
RoomModel mixed_fleet_room() {
  sim::ServerConfig old_node;
  old_node.idle_power_w = 58.0;
  old_node.peak_delta_w = 85.0;
  old_node.capacity_files_s = 34.0;
  sim::ServerConfig new_node;
  new_node.idle_power_w = 28.0;
  new_node.peak_delta_w = 48.0;
  new_node.capacity_files_s = 46.0;
  control::EvalOptions options;
  options.room.seed = 7;
  options.room.fleet = {{old_node, 10}, {new_node, 10}};
  options.profiling.heterogeneous_power = true;
  const control::EvalEngine eval(options);
  return eval.model();
}

TEST(BoundedOptimizer, BeatsBothOraclesOnTheMixedFleet) {
  const RoomModel room = mixed_fleet_room();
  ASSERT_FALSE(room.uniform_w1());
  for (int pct = 10; pct <= 95; pct += 5) {
    const double total = check_against_oracles(
        room, all_machines(room), room.total_capacity() * pct / 100.0,
        "load " + std::to_string(pct) + "%");
    if (pct == 60) {
      EXPECT_LE(total, 1540.21);
    }
  }
}

TEST(BoundedOptimizer, BeatsBothOraclesOnHeterogeneousRooms) {
  struct Cooler {
    double cfac;
    double q_coeff;
  };
  const Cooler coolers[] = {{45.0, 0.15}, {3.0, 0.15}, {1.0, 1.0}, {45.0, 0.0}};
  for (const Cooler& c : coolers) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      SyntheticModelOptions options;
      options.machines = 12;
      options.seed = seed;
      options.cfac = c.cfac;
      options.q_coeff = c.q_coeff;
      RoomModel room = make_synthetic_model(options);
      util::Rng rng(seed);
      for (MachineModel& m : room.machines) m.power.w1 = rng.uniform(1.0, 2.0);
      // Also a random half of the room, in shuffled order, so ON-set
      // positions and model indices differ.
      std::vector<size_t> half = all_machines(room);
      rng.shuffle(half);
      half.resize(half.size() / 2);
      double half_capacity = 0.0;
      for (const size_t i : half) half_capacity += room.machines[i].capacity;
      const std::string what = "cfac " + std::to_string(c.cfac) +
                               ", q_coeff " + std::to_string(c.q_coeff) +
                               ", seed " + std::to_string(seed);
      for (const double frac : {0.2, 0.4, 0.6, 0.8}) {
        const std::string at = ", load " + std::to_string(frac);
        check_against_oracles(room, all_machines(room),
                              room.total_capacity() * frac, what + at);
        check_against_oracles(room, half, half_capacity * frac,
                              what + ", half" + at);
      }
      if (HasFailure()) return;
    }
  }
}

TEST(BoundedOptimizer, BeatsBothOraclesUnderEveryCoolerVariant) {
  for (const CoolerVariant v : kCoolerVariants) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      RoomModel room = test_support::seeded_room(12, 500 + seed);
      util::Rng rng(seed);
      for (MachineModel& m : room.machines) m.power.w1 = rng.uniform(1.0, 2.0);
      room = with_cooler(room, v);
      for (const double frac : {0.05, 0.3, 0.6, 0.9, 1.0}) {
        check_against_oracles(room, all_machines(room),
                              room.total_capacity() * frac,
                              to_string(v) + ", seed " + std::to_string(seed) +
                                  ", load " + std::to_string(frac));
      }
      if (HasFailure()) return;
    }
  }
}

// With a uniform w1 and the closed form within its bounds, the sweep lands
// on the closed form's operating point (Eq. 21): the largest T_ac that
// carries the load. That holds too when a cooler floor binds at every T_ac
// and so every T_ac ties: ties go to the largest. (The seeded rooms' 28 C
// actuation ceiling is raised, or Eq. 21 leaves the range below about 85%
// load.)
TEST(BoundedOptimizer, AgreesWithTheClosedFormInsideItsBounds) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    for (const double floor_w : {-1e300, 1e6}) {
      RoomModel room = test_support::seeded_room(16, seed);
      room.t_ac_max = 45.0;
      room.cooler.min_power_w = floor_w;
      const AnalyticOptimizer closed_form(room);
      const BoundedOptimizer bounded(share_model(room));
      const std::vector<size_t> on = all_machines(room);
      BoundedWorkspace ws;
      Allocation plan;
      for (const double frac : {0.3, 0.5, 0.7, 0.9}) {
        const double load = room.total_capacity() * frac;
        const ClosedFormResult cf = closed_form.solve(on, load);
        if (!cf.within_bounds()) continue;
        ASSERT_TRUE(bounded.solve_into(on.data(), on.size(), load, ws, plan));
        EXPECT_NEAR(plan.t_ac, cf.allocation.t_ac, 1e-9);
        EXPECT_NEAR(plan.total_power_w, cf.allocation.total_power_w,
                    kRel * cf.allocation.total_power_w);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 40u);
}

TEST(BoundedOptimizer, RejectsWhatNoTacCanServe) {
  RoomModel room = test_support::seeded_room(6, 3);
  const std::vector<size_t> on = all_machines(room);
  BoundedWorkspace ws;
  Allocation plan;
  {
    const BoundedOptimizer bounded(share_model(room));
    EXPECT_FALSE(bounded.solve_into(on.data(), on.size(),
                                    room.total_capacity() * 1.01, ws, plan));
    EXPECT_TRUE(bounded.solve_into(on.data(), on.size(),
                                   room.total_capacity(), ws, plan));
    EXPECT_TRUE(bounded.solve_into(on.data(), 0, 0.0, ws, plan));
    EXPECT_FALSE(bounded.solve_into(on.data(), 0, 1.0, ws, plan));
  }
  // Machine 2 breaks T_max idle unless the air runs colder than t_ac_min.
  MachineModel& m = room.machines[2];
  room.t_ac_min = (room.t_max - m.thermal.gamma - m.thermal.beta * m.power.w2) /
                      m.thermal.alpha +
                  0.5;
  room.t_ac_max = room.t_ac_min + 10.0;
  const BoundedOptimizer bounded(share_model(room));
  EXPECT_FALSE(bounded.solve_into(on.data(), on.size(), 0.0, ws, plan));
  EXPECT_FALSE(LpOptimizer(room).solve(on, 0.0).has_value());
}

}  // namespace
}  // namespace coolopt::core
