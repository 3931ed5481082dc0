#include "core/verification.h"

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/closed_form.h"
#include "core/engine.h"
#include "core/synthetic.h"
#include "tests/core/on_set_support.h"
#include "tests/oracle/lp_optimizer.h"

namespace coolopt::core {
namespace {

using test_support::all_machines;

RoomModel model_for(uint64_t seed, size_t n = 8) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

TEST(AuditFeasibility, CleanAllocationPasses) {
  const RoomModel model = model_for(1);
  const LpOptimizer lp(model);
  const double load = model.total_capacity() * 0.5;
  const auto alloc = lp.solve(all_machines(model), load);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_TRUE(audit_feasibility(model, *alloc, load).empty());
}

TEST(AuditFeasibility, FlagsEachViolationKind) {
  const RoomModel model = model_for(2, 3);
  Allocation alloc;
  alloc.loads = {-5.0, model.machines[1].capacity + 10.0, 7.0};
  alloc.on = {true, true, false};
  alloc.t_ac = model.t_ac_max + 3.0;
  const auto issues = audit_feasibility(model, alloc, 100.0);
  auto has = [&](FeasibilityIssue::Kind kind) {
    for (const auto& issue : issues) {
      if (issue.kind == kind) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(FeasibilityIssue::Kind::kNegativeLoad));
  EXPECT_TRUE(has(FeasibilityIssue::Kind::kOverCapacity));
  EXPECT_TRUE(has(FeasibilityIssue::Kind::kLoadOnOffMachine));
  EXPECT_TRUE(has(FeasibilityIssue::Kind::kLoadSum));
  EXPECT_TRUE(has(FeasibilityIssue::Kind::kTacRange));
  for (const auto& issue : issues) {
    EXPECT_FALSE(issue.describe().empty());
  }
}

TEST(AuditFeasibility, FlagsTemperatureViolation) {
  const RoomModel model = model_for(3, 2);
  Allocation alloc;
  alloc.loads = {model.machines[0].capacity, model.machines[1].capacity};
  alloc.on = {true, true};
  alloc.t_ac = model.t_ac_max;  // full load at the warmest air: too hot
  const double load = alloc.total_load();
  const auto issues = audit_feasibility(model, alloc, load);
  bool temp = false;
  for (const auto& issue : issues) {
    temp |= issue.kind == FeasibilityIssue::Kind::kTemperature;
  }
  EXPECT_TRUE(temp);
}

TEST(AuditOptimality, LpSolutionSurvivesPerturbation) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    const RoomModel model = model_for(seed);
    const LpOptimizer lp(model);
    for (const double frac : {0.3, 0.6, 0.9}) {
      const auto alloc =
          lp.solve(all_machines(model), model.total_capacity() * frac);
      ASSERT_TRUE(alloc.has_value());
      const auto audit = audit_local_optimality(model, *alloc);
      EXPECT_TRUE(audit.locally_optimal)
          << "seed " << seed << " frac " << frac << ": " << audit.best_move
          << " improves by " << audit.best_improvement_w << " W";
    }
  }
}

TEST(AuditOptimality, ClosedFormSurvivesPerturbation) {
  for (uint64_t seed = 30; seed < 40; ++seed) {
    const RoomModel model = model_for(seed);
    const AnalyticOptimizer analytic(model);
    const double load = model.total_capacity() * 0.7;
    const ClosedFormResult cf = analytic.solve(all_machines(model), load);
    if (!cf.within_bounds()) continue;
    const auto audit = audit_local_optimality(model, cf.allocation);
    EXPECT_TRUE(audit.locally_optimal)
        << "seed " << seed << ": " << audit.best_move;
  }
}

TEST(AuditOptimality, EvenAllocationIsImprovable) {
  // The whole point of the paper: naive distributions leave energy on the
  // table. The auditor must find an improving move for Even.
  const RoomModel model = model_for(50, 10);
  std::vector<size_t> all(model.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Allocation even;
  even_allocation(model, model.total_capacity() * 0.7, all, even);
  even.t_ac = max_safe_t_ac(model, even.loads, even.on);
  even.finalize(model);
  const auto audit = audit_local_optimality(model, even);
  EXPECT_FALSE(audit.locally_optimal);
  EXPECT_GT(audit.best_improvement_w, 0.0);
}

TEST(AuditOptimality, PlannerPlansSurvivePerturbation) {
  const RoomModel model = model_for(60, 10);
  const PlanEngine planner(model);
  for (const double frac : {0.35, 0.65}) {
    const auto plan =
        planner.solve({Scenario::by_number(8), model.total_capacity() * frac})
            .plan;
    ASSERT_TRUE(plan.has_value());
    const auto audit = audit_local_optimality(model, plan->allocation);
    EXPECT_TRUE(audit.locally_optimal)
        << "frac " << frac << ": " << audit.best_move << " improves by "
        << audit.best_improvement_w;
  }
}

TEST(AuditOptimality, HandlesSingleMachine) {
  const RoomModel model = model_for(70, 1);
  const LpOptimizer lp(model);
  const auto alloc =
      lp.solve(all_machines(model), model.machines[0].capacity * 0.5);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_TRUE(audit_local_optimality(model, *alloc).locally_optimal);
}

}  // namespace
}  // namespace coolopt::core
