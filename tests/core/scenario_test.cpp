#include "core/scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/engine.h"
#include "core/synthetic.h"

namespace coolopt::core {
namespace {

RoomModel model_n(size_t n = 12, uint64_t seed = 71) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

TEST(Scenario, Fig4TableIsExactlyTheEight) {
  const auto& all = Scenario::all8();
  ASSERT_EQ(all.size(), 8u);
  auto expect = [&](int num, Distribution d, bool ac, bool consol) {
    const Scenario s = Scenario::by_number(num);
    EXPECT_EQ(s.distribution, d) << "scenario " << num;
    EXPECT_EQ(s.ac_control, ac) << "scenario " << num;
    EXPECT_EQ(s.consolidation, consol) << "scenario " << num;
  };
  expect(1, Distribution::kEven, false, false);
  expect(2, Distribution::kBottomUp, false, false);
  expect(3, Distribution::kBottomUp, false, true);
  expect(4, Distribution::kEven, true, false);
  expect(5, Distribution::kBottomUp, true, false);
  expect(6, Distribution::kOptimal, true, false);
  expect(7, Distribution::kBottomUp, true, true);
  expect(8, Distribution::kOptimal, true, true);
}

TEST(Scenario, NamesAndLookup) {
  EXPECT_EQ(Scenario::by_number(8).name(), "#8 Optimal +AC +consol");
  EXPECT_EQ(Scenario::by_number(1).name(), "#1 Even");
  EXPECT_THROW(Scenario::by_number(9), std::out_of_range);
  EXPECT_STREQ(to_string(Distribution::kBottomUp), "Bottom-up");
}

// The cases below plan each scenario through PlanEngine::solve; they keep
// the suite name of the retired planner facade they were written for.
TEST(ScenarioPlanner, PlansAreStructurallySound) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  for (const Scenario& s : Scenario::all8()) {
    for (const double frac : {0.15, 0.5, 0.9}) {
      const double load = model.total_capacity() * frac;
      const auto plan = planner.solve({s, load}).plan;
      ASSERT_TRUE(plan.has_value()) << s.name() << " at " << frac;
      EXPECT_NO_THROW(check_allocation(model, plan->allocation, load, 1e-6))
          << s.name();
      EXPECT_LE(predicted_peak_cpu_temp(model, plan->allocation),
                model.t_max + 1e-6)
          << s.name();
      for (size_t i = 0; i < model.size(); ++i) {
        EXPECT_LE(plan->allocation.loads[i],
                  model.machines[i].capacity + 1e-6);
      }
    }
  }
}

TEST(ScenarioPlanner, ConsolidationTurnsMachinesOff) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  const double load = model.total_capacity() * 0.3;
  const auto with = planner.solve({Scenario::by_number(7), load}).plan;
  const auto without = planner.solve({Scenario::by_number(5), load}).plan;
  ASSERT_TRUE(with && without);
  EXPECT_LT(with->allocation.count_on(), model.size());
  EXPECT_EQ(without->allocation.count_on(), model.size());
}

TEST(ScenarioPlanner, NoAcScenariosUseTheFixedTemperature) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  const auto p1 = planner.solve({Scenario::by_number(1), 50.0}).plan;
  const auto p2 = planner.solve({Scenario::by_number(2), 200.0}).plan;
  ASSERT_TRUE(p1 && p2);
  EXPECT_DOUBLE_EQ(p1->allocation.t_ac, planner.fixed_t_ac());
  EXPECT_DOUBLE_EQ(p2->allocation.t_ac, planner.fixed_t_ac());
}

TEST(ScenarioPlanner, AcControlRunsWarmerThanFixed) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  for (int pair = 0; pair < 2; ++pair) {
    const int without_ac = pair == 0 ? 1 : 2;
    const int with_ac = pair == 0 ? 4 : 5;
    const double load = model.total_capacity() * 0.4;
    const auto cold =
        planner.solve({Scenario::by_number(without_ac), load}).plan;
    const auto warm = planner.solve({Scenario::by_number(with_ac), load}).plan;
    ASSERT_TRUE(cold && warm);
    EXPECT_GE(warm->allocation.t_ac, cold->allocation.t_ac - 1e-9);
  }
}

TEST(ScenarioPlanner, OptimalHasLowestPredictedPower) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  for (const double frac : {0.2, 0.5, 0.8}) {
    const double load = model.total_capacity() * frac;
    const auto p6 = planner.solve({Scenario::by_number(6), load}).plan;
    const auto p4 = planner.solve({Scenario::by_number(4), load}).plan;
    const auto p5 = planner.solve({Scenario::by_number(5), load}).plan;
    ASSERT_TRUE(p6 && p4 && p5);
    EXPECT_LE(p6->allocation.total_power_w,
              p4->allocation.total_power_w + 1e-6);
    EXPECT_LE(p6->allocation.total_power_w,
              p5->allocation.total_power_w + 1e-6);
    const auto p8 = planner.solve({Scenario::by_number(8), load}).plan;
    const auto p7 = planner.solve({Scenario::by_number(7), load}).plan;
    ASSERT_TRUE(p8 && p7);
    EXPECT_LE(p8->allocation.total_power_w,
              p7->allocation.total_power_w + 1e-6);
  }
}

TEST(ScenarioPlanner, ZeroLoadWithConsolidationShutsEverythingDown) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  const auto plan = planner.solve({Scenario::by_number(8), 0.0}).plan;
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->allocation.count_on(), 0u);
  EXPECT_DOUBLE_EQ(plan->allocation.it_power_w, 0.0);
}

TEST(ScenarioPlanner, OverCapacityLoadThrows) {
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  EXPECT_THROW(
      planner.solve({Scenario::by_number(1), model.total_capacity() * 1.2}),
      std::invalid_argument);
  EXPECT_THROW(planner.solve({Scenario::by_number(1), -5.0}),
               std::invalid_argument);
}

TEST(ScenarioPlanner, MarginTightensTheCeiling) {
  const RoomModel model = model_n();
  PlannerOptions strict;
  strict.t_max_margin = 2.0;
  const PlanEngine tight(model, strict);
  const PlanEngine loose(model);
  const double load = model.total_capacity() * 0.7;
  const auto pt = tight.solve({Scenario::by_number(6), load}).plan;
  const auto pl = loose.solve({Scenario::by_number(6), load}).plan;
  ASSERT_TRUE(pt && pl);
  EXPECT_LE(predicted_peak_cpu_temp(model, pt->allocation), model.t_max - 2.0 + 1e-6);
  EXPECT_LE(pt->allocation.t_ac, pl->allocation.t_ac + 1e-9);
}

TEST(ScenarioPlanner, LowLoadOptimalEngagesLpFallback) {
  // At very low load with every machine ON, the pure closed form emits
  // negative loads; the planner must fall back to the bounded LP and note it.
  const RoomModel model = model_n();
  const PlanEngine planner(model);
  const auto plan =
      planner.solve({Scenario::by_number(6), model.total_capacity() * 0.03})
          .plan;
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->closed_form_pure);
  for (const double l : plan->allocation.loads) EXPECT_GE(l, -1e-9);
}

}  // namespace
}  // namespace coolopt::core
