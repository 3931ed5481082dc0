// Degenerate and boundary instances for the consolidation machinery:
// identical machines (no crossing events), parallel particles, singleton
// fleets, zero load, loads at the exact feasibility edge.
#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/synthetic.h"
#include "tests/core/consolidation_support.h"
#include "tests/oracle/consolidation.h"

namespace coolopt::core {
namespace {

using test_support::best_of;
using test_support::expect_select_matches_table;
using test_support::paper_query;
using test_support::ranking_of;

RoomModel identical_machines(size_t n) {
  RoomModel model;
  for (size_t i = 0; i < n; ++i) {
    MachineModel m;
    m.id = static_cast<int>(i);
    m.power = {1.5, 36.0};
    m.thermal = {1.0, 0.22, 0.5};
    m.capacity = 40.0;
    model.machines.push_back(m);
  }
  model.cooler = {45.0, 29.0, 140.0, 0.15, -1e300};
  model.t_max = 48.0;
  model.t_ac_min = 10.0;
  model.t_ac_max = 28.0;
  model.validate();
  return model;
}

TEST(ConsolidationEdge, IdenticalMachinesHaveNoEvents) {
  const RoomModel model = identical_machines(6);
  const IncrementalConsolidator ec(share_model(model));
  // All particles coincide: parallel AND co-located -> one class, and
  // zero crossings in the reference table.
  EXPECT_EQ(ec.class_count(), 1u);
  const ConsolidationTable reference = reference_table(ec.particles());
  EXPECT_EQ(reference.events.size(), 0u);
  EXPECT_EQ(reference.segments.size(), 1u);
  for (const double frac : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(expect_select_matches_table(ec.table(), nullptr,
                                          ec.particles(), model, reference,
                                          model.total_capacity() * frac),
              0u);
  }
  // Queries still work and agree with brute force.
  const BruteForceConsolidator bf(model);
  for (const double frac : {0.1, 0.5, 0.9}) {
    const double load = model.total_capacity() * frac;
    const auto fast = best_of(ec, load);
    const auto slow = bf.best(load);
    ASSERT_EQ(fast.has_value(), slow.has_value());
    if (fast) {
      EXPECT_EQ(fast->k, slow->k);
      EXPECT_NEAR(fast->predicted_total_power_w, slow->predicted_total_power_w,
                  1e-9);
    }
  }
}

TEST(ConsolidationEdge, ParallelDistinctParticles) {
  // Same speed (alpha/beta), different intercepts: particles never cross.
  RoomModel model = identical_machines(4);
  for (size_t i = 0; i < 4; ++i) {
    model.machines[i].thermal.gamma = 0.3 * static_cast<double>(i);
  }
  const IncrementalConsolidator ec(share_model(model));
  EXPECT_EQ(ec.class_count(), 4u);
  EXPECT_EQ(reference_table(ec.particles()).events.size(), 0u);
  const BruteForceConsolidator bf(model);
  const double load = model.total_capacity() * 0.4;
  const auto fast = best_of(ec, load);
  const auto slow = bf.best(load);
  ASSERT_TRUE(fast && slow);
  EXPECT_NEAR(fast->predicted_total_power_w, slow->predicted_total_power_w, 1e-9);
}

TEST(ConsolidationEdge, SingleMachineFleet) {
  SyntheticModelOptions o;
  o.machines = 1;
  o.seed = 9;
  const RoomModel model = make_synthetic_model(o);
  const IncrementalConsolidator ec(share_model(model));
  EXPECT_EQ(ec.class_count(), 1u);
  EXPECT_EQ(expect_select_matches_table(ec.table(), nullptr, ec.particles(),
                                        model, reference_table(ec.particles()),
                                        model.machines[0].capacity * 0.5),
            0u);
  const auto choice = best_of(ec, model.machines[0].capacity * 0.5);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->k, 1u);
  EXPECT_EQ(choice->on_set, std::vector<size_t>{0});
}

TEST(ConsolidationEdge, ZeroLoadPrefersOneMachine) {
  // With L = 0, power = k*w2 + cooling(t_hi): minimized at k = 1 (the
  // consolidator cannot return an empty set; the planner handles all-off).
  const RoomModel model = identical_machines(5);
  const IncrementalConsolidator ec(share_model(model));
  const auto choice = best_of(ec, 0.0);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->k, 1u);
}

TEST(ConsolidationEdge, LoadAtTheExactFeasibilityEdge) {
  const RoomModel model = identical_machines(3);
  const ParticleSystem ps = ParticleSystem::from_model(model);
  // Max servable with all 3 at the coldest allowed air:
  double l_edge = 0.0;
  for (size_t i = 0; i < 3; ++i) l_edge += ps.coordinate(i, ps.t_lo);
  const IncrementalConsolidator ec(share_model(model));
  EXPECT_TRUE(best_of(ec, l_edge * 0.999).has_value());
  EXPECT_FALSE(best_of(ec, l_edge * 1.001).has_value());
}

TEST(ConsolidationEdge, RankAllKShrinksWithLoad) {
  // As load grows, small ks drop out of the feasible ranking.
  SyntheticModelOptions o;
  o.machines = 8;
  o.seed = 13;
  const RoomModel model = make_synthetic_model(o);
  const IncrementalConsolidator ec(share_model(model));
  const size_t low = ranking_of(ec, model.total_capacity() * 0.1).size();
  const size_t high = ranking_of(ec, model.total_capacity() * 0.9).size();
  EXPECT_GT(low, high);
  EXPECT_GE(high, 1u);
}

TEST(ConsolidationEdge, PaperQueryOnDegenerateModel) {
  const RoomModel model = identical_machines(6);
  const IncrementalConsolidator ec(share_model(model));
  const auto paper = paper_query(ec, model.total_capacity() * 0.5);
  const auto exact = best_of(ec, model.total_capacity() * 0.5);
  ASSERT_TRUE(paper && exact);
  EXPECT_GE(paper->predicted_total_power_w,
            exact->predicted_total_power_w - 1e-9);
}

TEST(ConsolidationEdge, BudgetBelowIdleServesNothing) {
  const RoomModel model = identical_machines(4);
  const IncrementalConsolidator ec(share_model(model));
  // One idle machine + cooling floor costs more than 10 W.
  EXPECT_DOUBLE_EQ(ec.max_load_for_budget(10.0, 1), 0.0);
}

}  // namespace
}  // namespace coolopt::core
