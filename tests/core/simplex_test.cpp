#include "tests/oracle/simplex.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace coolopt::core {
namespace {

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> (2, 6), value 36.
  LpProblem lp(2);
  lp.set_objective(0, -3.0);  // minimize the negation
  lp.set_objective(1, -5.0);
  lp.add_less_equal({1.0, 0.0}, 4.0);
  lp.add_less_equal({0.0, 2.0}, 12.0);
  lp.add_less_equal({3.0, 2.0}, 18.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y == 10, x <= 4  -> x=4, y=6, value 16.
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.set_objective(1, 2.0);
  lp.add_equality({1.0, 1.0}, 10.0);
  lp.add_upper_bound(0, 4.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
}

TEST(Simplex, GreaterEqualAndLowerBound) {
  // min x s.t. x >= 3  -> 3.
  LpProblem lp(1);
  lp.set_objective(0, 1.0);
  lp.add_lower_bound(0, 3.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, InfeasibleDetected) {
  LpProblem lp(1);
  lp.add_less_equal({1.0}, 2.0);
  lp.add_greater_equal({1.0}, 5.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  LpProblem lp(2);
  lp.add_equality({1.0, 1.0}, 2.0);
  lp.add_equality({1.0, 1.0}, 3.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpProblem lp(1);
  lp.set_objective(0, -1.0);  // minimize -x with only x >= 0
  lp.add_greater_equal({1.0}, 1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NoConstraintsEdgeCases) {
  LpProblem up(1);
  up.set_objective(0, -1.0);
  EXPECT_EQ(solve_lp(up).status, LpStatus::kUnbounded);
  LpProblem ok(2);
  ok.set_objective(0, 1.0);
  const auto sol = solve_lp(ok);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(sol.x[0], 0.0);
}

TEST(Simplex, NegativeRhsHandled) {
  // x - y <= -2 with min x + y -> x=0, y=2.
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.set_objective(1, 1.0);
  lp.add_less_equal({1.0, -1.0}, -2.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple constraints meeting at the same vertex (classic degeneracy).
  LpProblem lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_less_equal({1.0, 0.0}, 1.0);
  lp.add_less_equal({0.0, 1.0}, 1.0);
  lp.add_less_equal({1.0, 1.0}, 2.0);
  lp.add_less_equal({2.0, 2.0}, 4.0);  // redundant copy of the above
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, RedundantEqualityIsFine) {
  LpProblem lp(2);
  lp.set_objective(0, 1.0);
  lp.add_equality({1.0, 1.0}, 4.0);
  lp.add_equality({2.0, 2.0}, 8.0);  // linearly dependent
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 4.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-9);  // x is costly, y is free
}

TEST(Simplex, ObjectiveTiesPickAVertex) {
  // Any point on x + y == 1 is optimal for min 0; solver must return a
  // feasible vertex.
  LpProblem lp(2);
  lp.add_equality({1.0, 1.0}, 1.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 1.0, 1e-9);
}

TEST(Simplex, RowWidthValidation) {
  LpProblem lp(2);
  EXPECT_THROW(lp.add_equality({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(LpProblem(0), std::invalid_argument);
}

TEST(Simplex, StatusToString) {
  EXPECT_STREQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::kUnbounded), "unbounded");
}

TEST(Simplex, ModeratelySizedDietProblem) {
  // min cost: 4 foods, 3 nutrient minimums; sanity against a known optimum.
  // Foods cost {2,3,1,5}; nutrient content rows below; minimums {8,6,10}.
  LpProblem lp(4);
  lp.set_objective(0, 2.0);
  lp.set_objective(1, 3.0);
  lp.set_objective(2, 1.0);
  lp.set_objective(3, 5.0);
  lp.add_greater_equal({1.0, 2.0, 1.0, 0.0}, 8.0);
  lp.add_greater_equal({2.0, 0.0, 1.0, 1.0}, 6.0);
  lp.add_greater_equal({0.0, 1.0, 2.0, 3.0}, 10.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  // Feasibility of the reported point.
  EXPECT_GE(sol.x[0] + 2 * sol.x[1] + sol.x[2] - 8.0, -1e-9);
  EXPECT_GE(2 * sol.x[0] + sol.x[2] + sol.x[3] - 6.0, -1e-9);
  EXPECT_GE(sol.x[1] + 2 * sol.x[2] + 3 * sol.x[3] - 10.0, -1e-9);
  // All-food-2 solution costs 8 (x2 = 8 covers all constraints at cost 8);
  // the optimum can't beat the LP bound 16/3 but must be <= 8.
  EXPECT_LE(sol.objective, 8.0 + 1e-9);
}

}  // namespace
}  // namespace coolopt::core

namespace coolopt::core {
namespace {

TEST(SimplexInvariance, RowScalingDoesNotChangeTheOptimum) {
  auto build = [](double scale) {
    LpProblem lp(2);
    lp.set_objective(0, 1.0);
    lp.set_objective(1, 2.0);
    lp.add_equality({scale * 1.0, scale * 1.0}, scale * 10.0);
    lp.add_less_equal({scale * 1.0, 0.0}, scale * 4.0);
    return lp;
  };
  const auto a = solve_lp(build(1.0));
  const auto b = solve_lp(build(25.0));
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_NEAR(a.x[0], b.x[0], 1e-9);
}

TEST(SimplexInvariance, VariablePermutationDoesNotChangeTheValue) {
  // min 3x + y  s.t. x + y >= 4, x <= 3  vs the same with (x, y) swapped.
  LpProblem lp1(2);
  lp1.set_objective(0, 3.0);
  lp1.set_objective(1, 1.0);
  lp1.add_greater_equal({1.0, 1.0}, 4.0);
  lp1.add_upper_bound(0, 3.0);

  LpProblem lp2(2);
  lp2.set_objective(0, 1.0);
  lp2.set_objective(1, 3.0);
  lp2.add_greater_equal({1.0, 1.0}, 4.0);
  lp2.add_upper_bound(1, 3.0);

  const auto a = solve_lp(lp1);
  const auto b = solve_lp(lp2);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_NEAR(a.x[0], b.x[1], 1e-9);
  EXPECT_NEAR(a.x[1], b.x[0], 1e-9);
}

TEST(SimplexInvariance, WeakDualityOnRandomBoundedProblems) {
  // Any feasible point's objective upper-bounds the reported minimum.
  util::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 4;
    LpProblem lp(n);
    std::vector<double> feasible(n);
    for (size_t j = 0; j < n; ++j) {
      lp.set_objective(j, rng.uniform(-2.0, 5.0));
      feasible[j] = rng.uniform(0.0, 3.0);
      lp.add_upper_bound(j, feasible[j] + rng.uniform(0.0, 2.0));
    }
    // One coupling constraint satisfied by `feasible` by construction.
    std::vector<double> row(n);
    double rhs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      row[j] = rng.uniform(0.2, 1.5);
      rhs += row[j] * feasible[j];
    }
    lp.add_less_equal(row, rhs + 0.5);

    const auto sol = solve_lp(lp);
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "trial " << trial;
    double feasible_cost = 0.0;
    for (size_t j = 0; j < n; ++j) {
      feasible_cost += lp.objective()[j] * feasible[j];
    }
    EXPECT_LE(sol.objective, feasible_cost + 1e-7) << "trial " << trial;
  }
}

}  // namespace
}  // namespace coolopt::core
