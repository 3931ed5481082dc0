#include "tests/oracle/lp_optimizer.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/closed_form.h"
#include "core/synthetic.h"
#include "tests/core/on_set_support.h"

namespace coolopt::core {
namespace {

using test_support::all_machines;

RoomModel model_n(size_t n, uint64_t seed) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

TEST(LpOptimizer, RespectsAllBounds) {
  const RoomModel model = model_n(10, 31);
  const LpOptimizer lp(model);
  // Tiny load where the closed form would emit negative loads.
  const auto alloc =
      lp.solve(all_machines(model), model.total_capacity() * 0.02);
  ASSERT_TRUE(alloc.has_value());
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_GE(alloc->loads[i], -1e-9);
    EXPECT_LE(alloc->loads[i], model.machines[i].capacity + 1e-6);
    EXPECT_LE(predicted_cpu_temp(model, *alloc, i), model.t_max + 1e-6);
  }
  EXPECT_GE(alloc->t_ac, model.t_ac_min - 1e-9);
  EXPECT_LE(alloc->t_ac, model.t_ac_max + 1e-9);
  EXPECT_NEAR(alloc->total_load(), model.total_capacity() * 0.02, 1e-6);
}

TEST(LpOptimizer, InfeasibleWhenLoadExceedsOnCapacity) {
  const RoomModel model = model_n(4, 32);
  const LpOptimizer lp(model);
  const double cap01 =
      model.machines[0].capacity + model.machines[1].capacity;
  EXPECT_FALSE(lp.solve({0, 1}, cap01 * 1.1).has_value());
  EXPECT_TRUE(lp.solve({0, 1}, cap01 * 0.9).has_value());
}

TEST(LpOptimizer, PrefersWarmestFeasibleAir) {
  const RoomModel model = model_n(6, 33);
  const LpOptimizer lp(model);
  const auto light =
      lp.solve(all_machines(model), model.total_capacity() * 0.1);
  ASSERT_TRUE(light.has_value());
  // At light load nothing binds before the actuation limit.
  EXPECT_NEAR(light->t_ac, model.t_ac_max, 1e-6);
}

TEST(LpOptimizer, MatchesClosedFormOnInteriorInstance) {
  // Seed chosen so at least one sweep fraction keeps the closed form
  // strictly inside the bounds (most instances clamp at t_ac_max).
  const RoomModel model = model_n(7, 30);
  const AnalyticOptimizer analytic(model);
  const LpOptimizer lp(model);
  bool checked = false;
  for (const double frac : {0.55, 0.65, 0.75, 0.85}) {
    const double load = model.total_capacity() * frac;
    const ClosedFormResult cf = analytic.solve(all_machines(model), load);
    if (!cf.within_bounds()) continue;
    const auto bounded = lp.solve(all_machines(model), load);
    ASSERT_TRUE(bounded.has_value());
    EXPECT_NEAR(bounded->t_ac, cf.allocation.t_ac, 1e-5);
    checked = true;
  }
  EXPECT_TRUE(checked) << "no interior instance found; adjust fractions";
}

TEST(LpOptimizer, SupportsHeterogeneousW1) {
  RoomModel model = model_n(3, 35);
  model.machines[0].power.w1 = 1.0;   // efficient machine
  model.machines[1].power.w1 = 3.0;   // hungry machine
  const LpOptimizer lp(model);
  const auto alloc = lp.solve(all_machines(model), 50.0);
  ASSERT_TRUE(alloc.has_value());
  // The efficient machine should carry at least as much load as the hungry
  // one (both being otherwise similar draws).
  EXPECT_GE(alloc->loads[0], alloc->loads[1] - 1e-6);
}

TEST(LpOptimizer, SubsetMasksOthers) {
  const RoomModel model = model_n(5, 36);
  const LpOptimizer lp(model);
  const auto alloc = lp.solve({1, 3}, 30.0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_FALSE(alloc->on[0]);
  EXPECT_TRUE(alloc->on[1]);
  EXPECT_DOUBLE_EQ(alloc->loads[0], 0.0);
  EXPECT_NEAR(alloc->loads[1] + alloc->loads[3], 30.0, 1e-6);
}

TEST(LpOptimizer, InputValidation) {
  const RoomModel model = model_n(3, 37);
  const LpOptimizer lp(model);
  EXPECT_THROW(lp.solve({}, 1.0), std::invalid_argument);
  EXPECT_THROW(lp.solve({0}, -1.0), std::invalid_argument);
  EXPECT_THROW(lp.solve({0, 0}, 1.0), std::invalid_argument);
  EXPECT_THROW(lp.solve({9}, 1.0), std::invalid_argument);
}

TEST(LpOptimizer, ZeroLoadKeepsMachinesIdleAndWarm) {
  const RoomModel model = model_n(4, 38);
  const LpOptimizer lp(model);
  const auto alloc = lp.solve(all_machines(model), 0.0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_NEAR(alloc->total_load(), 0.0, 1e-9);
  EXPECT_NEAR(alloc->t_ac, model.t_ac_max, 1e-6);
}

}  // namespace
}  // namespace coolopt::core
