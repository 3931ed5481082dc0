#include "core/baselines.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/synthetic.h"

namespace coolopt::core {
namespace {

RoomModel model_n(size_t n, uint64_t seed = 61) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

std::vector<size_t> all_of(const RoomModel& m) {
  std::vector<size_t> v(m.size());
  for (size_t i = 0; i < v.size(); ++i) v[i] = i;
  return v;
}

Allocation even(const RoomModel& m, double load, const std::vector<size_t>& on) {
  Allocation a;
  even_allocation(m, load, on, a);
  return a;
}

Allocation bottom_up(const RoomModel& m, double load,
                     const std::vector<size_t>& on) {
  Allocation a;
  bottom_up_allocation(m, load, on, a);
  return a;
}

TEST(CoolnessOrder, SortedByPredictedIdleTemperature) {
  const RoomModel model = model_n(8);
  const auto order = coolness_order(model);
  ASSERT_EQ(order.size(), model.size());
  auto idle_temp = [&](size_t i) {
    const MachineModel& m = model.machines[i];
    return m.thermal.predict(15.0, m.power.predict(0.0));
  };
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(idle_temp(order[i - 1]), idle_temp(order[i]) + 1e-12);
  }
  // It is a permutation.
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, all_of(model));
}

TEST(MinMachinesFor, CoversLoadWithFewest) {
  const RoomModel model = model_n(6);
  const auto order = coolness_order(model);
  const double one_cap = model.machines[order[0]].capacity;
  EXPECT_EQ(min_machines_for(model, 0.0, order), 0u);
  EXPECT_EQ(min_machines_for(model, one_cap * 0.5, order), 1u);
  EXPECT_EQ(min_machines_for(model, one_cap, order), 1u);
  EXPECT_EQ(min_machines_for(model, one_cap * 1.01, order), 2u);
  EXPECT_EQ(min_machines_for(model, model.total_capacity(), order), 6u);
}

TEST(MinMachinesFor, RejectsImpossibleLoads) {
  const RoomModel model = model_n(3);
  const auto order = coolness_order(model);
  EXPECT_THROW(min_machines_for(model, model.total_capacity() * 1.1, order),
               std::invalid_argument);
  EXPECT_THROW(min_machines_for(model, -1.0, order), std::invalid_argument);
}

TEST(EvenAllocation, EqualSharesWhenTheyFit) {
  const RoomModel model = model_n(5);
  const auto alloc = even(model, 100.0, all_of(model));
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_NEAR(alloc.loads[i], 20.0, 1e-9);
    EXPECT_TRUE(alloc.on[i]);
  }
  EXPECT_NEAR(alloc.total_load(), 100.0, 1e-9);
}

TEST(EvenAllocation, WaterFillsWhenAShareExceedsCapacity) {
  RoomModel model = model_n(3);
  model.machines[0].capacity = 10.0;  // small machine pins first
  model.machines[1].capacity = 100.0;
  model.machines[2].capacity = 100.0;
  const auto alloc = even(model, 90.0, all_of(model));
  EXPECT_NEAR(alloc.loads[0], 10.0, 1e-9);
  EXPECT_NEAR(alloc.loads[1], 40.0, 1e-9);
  EXPECT_NEAR(alloc.loads[2], 40.0, 1e-9);
}

TEST(EvenAllocation, SubsetOnly) {
  const RoomModel model = model_n(4);
  const auto alloc = even(model, 30.0, {1, 3});
  EXPECT_DOUBLE_EQ(alloc.loads[0], 0.0);
  EXPECT_FALSE(alloc.on[0]);
  EXPECT_NEAR(alloc.loads[1], 15.0, 1e-9);
  EXPECT_NEAR(alloc.loads[3], 15.0, 1e-9);
}

TEST(EvenAllocation, Errors) {
  const RoomModel model = model_n(2);
  EXPECT_THROW(even(model, 10.0, {}), std::invalid_argument);
  EXPECT_THROW(even(model, model.total_capacity() * 2.0, all_of(model)),
               std::invalid_argument);
}

TEST(BottomUpAllocation, FillsCoolestFirstToCapacity) {
  const RoomModel model = model_n(5);
  const auto order = coolness_order(model);
  const double load =
      model.machines[order[0]].capacity + model.machines[order[1]].capacity * 0.5;
  const auto alloc = bottom_up(model, load, order);
  EXPECT_NEAR(alloc.loads[order[0]], model.machines[order[0]].capacity, 1e-9);
  EXPECT_NEAR(alloc.loads[order[1]], model.machines[order[1]].capacity * 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(alloc.loads[order[2]], 0.0);
  EXPECT_TRUE(alloc.on[order[2]]);  // consolidation is the caller's knob
}

TEST(BottomUpAllocation, RestrictedToOnSet) {
  const RoomModel model = model_n(5);
  const auto order = coolness_order(model);
  // Exclude the coolest machine: the fill must start at the next coolest.
  std::vector<size_t> on_set;
  for (size_t i = 1; i < order.size(); ++i) on_set.push_back(order[i]);
  const auto alloc = bottom_up(model, 10.0, on_set);
  EXPECT_DOUBLE_EQ(alloc.loads[order[0]], 0.0);
  EXPECT_FALSE(alloc.on[order[0]]);
  EXPECT_NEAR(alloc.loads[order[1]], 10.0, 1e-9);
}

TEST(BottomUpAllocation, Errors) {
  const RoomModel model = model_n(2);
  EXPECT_THROW(bottom_up(model, 1.0, {}), std::invalid_argument);
  EXPECT_THROW(
      bottom_up(model, model.total_capacity() * 1.5, all_of(model)),
      std::invalid_argument);
}

TEST(Baselines, FullLoadIdenticalTotals) {
  // At 100% load both baselines pin every machine at capacity.
  const RoomModel model = model_n(4);
  const double load = model.total_capacity();
  const auto even_alloc = even(model, load, all_of(model));
  const auto bottom = bottom_up(model, load, coolness_order(model));
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_NEAR(even_alloc.loads[i], model.machines[i].capacity, 1e-9);
    EXPECT_NEAR(bottom.loads[i], model.machines[i].capacity, 1e-6);
  }
}

}  // namespace
}  // namespace coolopt::core
