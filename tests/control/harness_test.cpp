// EvalEngine as the figure benches drive it: one measure, one sweep, and
// the model accessors. These cases once tested a retired eager facade over
// the engine; they keep its suite name so their history reads
// continuously.
#include "control/eval_engine.h"

#include <gtest/gtest.h>

namespace coolopt::control {
namespace {

EvalOptions small() {
  EvalOptions o;
  o.room.num_servers = 8;
  o.room.seed = 61;
  return o;
}

TEST(EvalHarness, MeasureProducesFeasiblePoints) {
  EvalEngine eval(small());
  const EvalPoint p = eval.measure(core::Scenario::by_number(8), 50.0);
  EXPECT_TRUE(p.feasible);
  EXPECT_GT(p.measurement.total_power_w, 0.0);
  EXPECT_EQ(p.scenario.number, 8);
  EXPECT_DOUBLE_EQ(p.load_pct, 50.0);
  EXPECT_NEAR(p.measurement.throughput_files_s,
              eval.capacity_files_s() * 0.5, 1e-6);
}

TEST(EvalHarness, SweepCoversTheGrid) {
  EvalEngine eval(small());
  const auto rows = eval.sweep(
      {core::Scenario::by_number(1), core::Scenario::by_number(8)}, {20.0, 60.0});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].scenario.number, 1);
  EXPECT_DOUBLE_EQ(rows[1].load_pct, 60.0);
  EXPECT_EQ(rows[3].scenario.number, 8);
}

TEST(EvalHarness, PaperLoadAxis) {
  const auto axis = paper_load_axis();
  ASSERT_EQ(axis.size(), 10u);
  EXPECT_DOUBLE_EQ(axis.front(), 10.0);
  EXPECT_DOUBLE_EQ(axis.back(), 100.0);
}

TEST(EvalHarness, ModelAccessorsAreCoherent) {
  EvalEngine eval(small());
  EXPECT_EQ(eval.model().size(), 8u);
  EXPECT_NEAR(eval.capacity_files_s(), eval.model().total_capacity(), 1e-9);
  EXPECT_GT(eval.profile().power.r_squared, 0.98);
}

}  // namespace
}  // namespace coolopt::control
