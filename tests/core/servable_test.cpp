// The degraded plan's load against an independent oracle. When a request
// cannot be fully served, PlanEngine plans the largest load the scenario's
// rule can carry (servable_load) in one solve. These tests check that load
// with tests/oracle/max_servable.h, which rebuilds the rule's allocations
// and asks the LP oracle without touching the engine or BoundedOptimizer,
// and pin the rooms where a bisection over the planner served less than the
// room carries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/synthetic.h"
#include "core/verification.h"
#include "tests/oracle/max_servable.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

/// How far over T_max the engine lets Even and Bottom-up fills run when it
/// computes their servable load: the 1e-6 C its final check allows, less a
/// 1e-9 C rounding guard.
constexpr double kRuleSlackC = 1e-6 - 1e-9;

RoomModel synthetic(size_t machines, uint64_t seed, double capacity_lo,
                    double capacity_hi) {
  SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  opt.capacity_lo = capacity_lo;
  opt.capacity_hi = capacity_hi;
  return make_synthetic_model(opt);
}

/// Capacities in [60, 120], past most machines' thermal caps at t_ac_min,
/// and w1 = 1 + U[0, 1) per machine.
RoomModel heterogeneous_w1(size_t machines, uint64_t seed) {
  RoomModel room = synthetic(machines, seed, 60.0, 120.0);
  util::Rng rng(78);
  for (MachineModel& m : room.machines) m.power.w1 = 1.0 + rng.uniform();
  return room;
}

struct NamedRoom {
  std::string name;
  RoomModel model;
};

/// Rooms where the thermal ceiling, not capacity, caps the load: uniform
/// capacities above every thermal cap, drawn capacities, a heterogeneous
/// w1, one machine that cannot idle at t_ac_min, and a single machine.
std::vector<NamedRoom> rooms() {
  std::vector<NamedRoom> out;
  out.push_back({"uniform", synthetic(10, 7, 95.0, 105.0)});
  out.push_back({"capacity-drawn", synthetic(10, 5, 15.0, 120.0)});
  out.push_back({"heterogeneous-w1", heterogeneous_w1(10, 11)});
  RoomModel non_idling = synthetic(10, 7, 95.0, 105.0);
  MachineModel& hot = non_idling.machines[3];
  hot.thermal.gamma = non_idling.t_max + 0.5 -
                      hot.thermal.alpha * non_idling.t_ac_min -
                      hot.thermal.beta * hot.power.w2;
  out.push_back({"non-idling", std::move(non_idling)});
  out.push_back({"one-machine", synthetic(1, 3, 95.0, 105.0)});
  return out;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out = Scenario::all8();
  // Fig. 8's Even + AC control + consolidation.
  out.push_back(Scenario{0, Distribution::kEven, true, true});
  return out;
}

std::vector<size_t> allowed_of(size_t n, const std::vector<size_t>& quarantined) {
  std::vector<size_t> allowed;
  for (size_t i = 0; i < n; ++i) {
    if (std::find(quarantined.begin(), quarantined.end(), i) ==
        quarantined.end()) {
      allowed.push_back(i);
    }
  }
  return allowed;
}

TEST(PlanEngineServable, DegradedLoadMatchesTheOracle) {
  size_t degraded = 0;
  size_t infeasible = 0;
  for (const NamedRoom& room : rooms()) {
    const PlanEngine engine(room.model);
    const RoomModel& planning = engine.planning_model();
    const size_t n = planning.size();
    const double capacity = planning.total_capacity();
    std::vector<std::vector<size_t>> quarantine_sets = {{}};
    if (n > 1) quarantine_sets.push_back({2});
    if (n > 7) quarantine_sets.push_back({0, 4, 7});
    // The Optimal-with-consolidation oracle enumerates every ON set; its
    // answer is min(load, a per-room maximum), so each maximum is computed
    // once.
    std::map<size_t, double> optimal_consolidated_max;
    for (size_t q = 0; q < quarantine_sets.size(); ++q) {
      const std::vector<size_t> allowed = allowed_of(n, quarantine_sets[q]);
      double allowed_capacity = 0.0;
      for (const size_t i : allowed) allowed_capacity += planning.machines[i].capacity;
      for (const Scenario& s : scenarios()) {
        for (const double frac : {0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0}) {
          const PlanRequest request{s, capacity * frac, quarantine_sets[q]};
          SCOPED_TRACE(room.name + ", " + s.name() + ", load " +
                       std::to_string(request.load) + ", quarantine set " +
                       std::to_string(q));
          const double serveable = std::min(request.load, allowed_capacity);
          double expected = 0.0;
          if (s.distribution == Distribution::kOptimal && s.consolidation) {
            if (!optimal_consolidated_max.count(q)) {
              optimal_consolidated_max[q] = oracle_max_servable(
                  planning, s, allowed_capacity, allowed, kRuleSlackC);
            }
            expected = std::min(serveable, optimal_consolidated_max[q]);
          } else {
            expected =
                oracle_max_servable(planning, s, serveable, allowed, kRuleSlackC);
          }

          const PlanResult result = engine.solve(request);
          if (expected < 0.0) {
            EXPECT_FALSE(result.plan.has_value());
            EXPECT_EQ(result.shed_load, request.load);
            ++infeasible;
            continue;
          }
          ASSERT_TRUE(result.plan.has_value());
          const double served = request.load - result.shed_load;
          EXPECT_NEAR(served, expected, 1e-9 * std::max(1.0, expected));
          if (result.shed_load <= 0.0) continue;

          ++degraded;
          const Plan& plan = *result.plan;
          const std::vector<FeasibilityIssue> issues =
              audit_feasibility(planning, plan.allocation, plan.load);
          EXPECT_TRUE(issues.empty()) << issues.front().describe();
          // The served load is the largest: asking for a hair more sheds
          // again and serves the same load, to the bit.
          const double more = served * (1.0 + 1e-9);
          if (more > capacity) continue;
          const PlanResult again =
              engine.solve(PlanRequest{s, more, quarantine_sets[q]});
          ASSERT_TRUE(again.plan.has_value());
          EXPECT_GT(again.shed_load, 0.0);
          EXPECT_EQ(again.plan->load, plan.load);
        }
      }
    }
  }
  // Every family degrades somewhere, and the non-idling room's
  // no-consolidation scenarios have no plan at all.
  EXPECT_GT(degraded, 200u);
  EXPECT_GT(infeasible, 0u);
}

/// The consolidation search is not monotone in load; a bisection over the
/// whole planner assumed it was. On this room (14 machines, capacities in
/// [60, 120], w1 = 1 + U[0, 1)) scenario 8 at 95% load served 856.13 of the
/// 981.61 the room carries, and at 65% shed 9.09 of an 865.23 request that
/// every machine together carries.
TEST(PlanEngineServable, ConsolidationSearchMissesNoLongerShed) {
  const PlanEngine engine(heterogeneous_w1(14, 11));
  const Scenario holistic = Scenario::by_number(8);
  const double capacity = engine.model().total_capacity();
  std::vector<size_t> all(engine.model().size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const double room_max = oracle_max_servable(
      engine.planning_model(), Scenario::by_number(6), capacity, all, 0.0);
  EXPECT_NEAR(room_max, 981.61, 0.01);

  const PlanResult high = engine.solve(PlanRequest{holistic, capacity * 0.95});
  ASSERT_TRUE(high.plan.has_value());
  EXPECT_GT(high.shed_load, 0.0);
  EXPECT_NEAR(capacity * 0.95 - high.shed_load, room_max, 1e-9 * room_max);

  const PlanResult mid = engine.solve(PlanRequest{holistic, capacity * 0.65});
  EXPECT_NEAR(capacity * 0.65, 865.23, 0.01);
  ASSERT_TRUE(mid.feasible());
  EXPECT_NEAR(mid.plan->allocation.total_load(), capacity * 0.65, 1e-9 * capacity);
  EXPECT_TRUE(audit_feasibility(engine.planning_model(), mid.plan->allocation,
                                capacity * 0.65)
                  .empty());
}

}  // namespace
}  // namespace coolopt::core
