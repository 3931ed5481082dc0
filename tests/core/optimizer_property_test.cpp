// Cross-cutting optimizer properties over randomized instances:
//  * the LP optimum dominates arbitrary feasible allocations,
//  * the closed form is invariant to machine ordering,
//  * the plan engine's predicted ranking matches the paper's theory
//    (Optimal <= Bottom-up/Even under the model, with and without
//    consolidation).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/baselines.h"
#include "core/closed_form.h"
#include "core/engine.h"
#include "core/synthetic.h"
#include "tests/core/on_set_support.h"
#include "tests/oracle/lp_optimizer.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

using test_support::all_machines;

RoomModel model_for(uint64_t seed, size_t n = 10) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

/// A random allocation that satisfies all the LP's constraints: loads in
/// [0, cap] summing to `load`, T_ac at the allocation's safe maximum.
Allocation random_feasible(const RoomModel& model, double load, util::Rng& rng) {
  Allocation alloc;
  alloc.loads.assign(model.size(), 0.0);
  alloc.on.assign(model.size(), true);
  // Random proportions, water-filled against capacity.
  std::vector<double> weight(model.size());
  for (double& w : weight) w = rng.uniform(0.05, 1.0);
  double remaining = load;
  std::vector<size_t> free(model.size());
  std::iota(free.begin(), free.end(), size_t{0});
  while (remaining > 1e-12 && !free.empty()) {
    double wsum = 0.0;
    for (const size_t i : free) wsum += weight[i];
    std::vector<size_t> still;
    bool pinned = false;
    const double budget = remaining;
    for (const size_t i : free) {
      const double want = alloc.loads[i] + budget * weight[i] / wsum;
      if (want >= model.machines[i].capacity) {
        remaining -= model.machines[i].capacity - alloc.loads[i];
        alloc.loads[i] = model.machines[i].capacity;
        pinned = true;
      } else {
        still.push_back(i);
      }
    }
    if (!pinned) {
      for (const size_t i : still) alloc.loads[i] += budget * weight[i] / wsum;
      remaining = 0.0;
    }
    free = std::move(still);
  }
  alloc.t_ac = max_safe_t_ac(model, alloc.loads, alloc.on);
  alloc.finalize(model);
  return alloc;
}

class OptimizerProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerProperties, LpDominatesRandomFeasibleAllocations) {
  const RoomModel model = model_for(GetParam());
  const LpOptimizer lp(model);
  util::Rng rng(GetParam() * 977 + 3);
  for (const double frac : {0.2, 0.5, 0.8}) {
    const double load = model.total_capacity() * frac;
    const auto best = lp.solve(all_machines(model), load);
    ASSERT_TRUE(best.has_value());
    for (int trial = 0; trial < 8; ++trial) {
      const Allocation rand_alloc = random_feasible(model, load, rng);
      EXPECT_LE(best->total_power_w, rand_alloc.total_power_w + 1e-6)
          << "seed " << GetParam() << " frac " << frac << " trial " << trial;
    }
  }
}

TEST_P(OptimizerProperties, ClosedFormInvariantToMachineOrder) {
  const RoomModel model = model_for(GetParam(), 8);
  const AnalyticOptimizer opt(model);
  const double load = model.total_capacity() * 0.6;

  std::vector<size_t> order(model.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const ClosedFormResult base = opt.solve(order, load);

  util::Rng rng(GetParam());
  rng.shuffle(order);
  const ClosedFormResult shuffled = opt.solve(order, load);
  EXPECT_NEAR(shuffled.allocation.t_ac, base.allocation.t_ac, 1e-9);
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_NEAR(shuffled.allocation.loads[i], base.allocation.loads[i], 1e-9);
  }
}

TEST_P(OptimizerProperties, PlannerPredictedRankingMatchesTheory) {
  const RoomModel model = model_for(GetParam(), 12);
  const PlanEngine planner(model);
  for (const double frac : {0.25, 0.55, 0.85}) {
    const double load = model.total_capacity() * frac;
    const auto p4 = planner.solve({Scenario::by_number(4), load}).plan;
    const auto p5 = planner.solve({Scenario::by_number(5), load}).plan;
    const auto p6 = planner.solve({Scenario::by_number(6), load}).plan;
    const auto p7 = planner.solve({Scenario::by_number(7), load}).plan;
    const auto p8 = planner.solve({Scenario::by_number(8), load}).plan;
    ASSERT_TRUE(p4 && p5 && p6 && p7 && p8);
    // Under the model, Optimal dominates the baselines in its own family.
    EXPECT_LE(p6->allocation.total_power_w, p4->allocation.total_power_w + 1e-6);
    EXPECT_LE(p6->allocation.total_power_w, p5->allocation.total_power_w + 1e-6);
    EXPECT_LE(p8->allocation.total_power_w, p7->allocation.total_power_w + 1e-6);
    // And consolidation never hurts the optimal method's prediction.
    EXPECT_LE(p8->allocation.total_power_w, p6->allocation.total_power_w + 1e-6);
  }
}

TEST_P(OptimizerProperties, ScenarioPlansRespectAllConstraints) {
  const RoomModel model = model_for(GetParam(), 12);
  const PlanEngine planner(model);
  for (const Scenario& s : Scenario::all8()) {
    for (const double frac : {0.1, 0.6, 1.0}) {
      const double load = model.total_capacity() * frac;
      const auto plan = planner.solve({s, load}).plan;
      if (!plan) continue;  // infeasible combinations are allowed to refuse
      EXPECT_NO_THROW(check_allocation(model, plan->allocation, load, 1e-6));
      EXPECT_LE(predicted_peak_cpu_temp(model, plan->allocation),
                model.t_max + 1e-6)
          << s.name() << " seed " << GetParam() << " frac " << frac;
      EXPECT_GE(plan->allocation.t_ac, model.t_ac_min - 1e-9);
      EXPECT_LE(plan->allocation.t_ac, model.t_ac_max + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, OptimizerProperties,
                         ::testing::Range<uint64_t>(500, 525));

}  // namespace
}  // namespace coolopt::core
