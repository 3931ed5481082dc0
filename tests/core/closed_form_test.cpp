// The heart of the reproduction: the closed form of Eqs. 18-22 is checked
// by hand on a small instance, by its KKT structure (every ON machine at
// T_max), and against the independent LP solver on randomized instances.
#include "core/closed_form.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/synthetic.h"
#include "tests/core/on_set_support.h"
#include "tests/oracle/lp_optimizer.h"

namespace coolopt::core {
namespace {

using test_support::all_machines;

RoomModel two_machine_model() {
  RoomModel model;
  for (int i = 0; i < 2; ++i) {
    MachineModel m;
    m.id = i;
    m.power = {2.0, 30.0};
    m.capacity = 1000.0;  // generous: keep the closed form in bounds
    model.machines.push_back(m);
  }
  model.machines[0].thermal = {1.0, 0.25, 1.0};
  model.machines[1].thermal = {0.8, 0.20, 2.0};
  model.cooler = {60.0, 30.0, 100.0, 0.0, -1e300};
  model.t_max = 50.0;
  model.t_ac_min = 0.0;
  model.t_ac_max = 100.0;
  return model;
}

TEST(ClosedForm, HandComputedTwoMachineInstance) {
  const RoomModel model = two_machine_model();
  // K_0 = (50 - 0.25*30 - 1) / (0.25*2) = 41.5/0.5 = 83
  // K_1 = (50 - 0.20*30 - 2) / (0.20*2) = 42/0.4   = 105
  // sum_ab = 1/0.25 + 0.8/0.2 = 4 + 4 = 8
  // L = 100: T_ac = (188 - 100)*2/8 = 22
  // L_0 = 83 - 88*4/8 = 39;  L_1 = 105 - 88*4/8 = 61.
  const AnalyticOptimizer opt(model);
  const ClosedFormResult r = opt.solve(all_machines(model), 100.0);
  EXPECT_NEAR(r.sum_k, 188.0, 1e-9);
  EXPECT_NEAR(r.sum_ab, 8.0, 1e-9);
  EXPECT_NEAR(r.allocation.t_ac, 22.0, 1e-9);
  EXPECT_NEAR(r.allocation.loads[0], 39.0, 1e-9);
  EXPECT_NEAR(r.allocation.loads[1], 61.0, 1e-9);
  EXPECT_TRUE(r.within_bounds());
}

TEST(ClosedForm, EveryOnMachineSitsExactlyAtTmax) {
  // The KKT argument (strictly positive multipliers) forces the optimum to
  // the constraint boundary for every machine.
  SyntheticModelOptions o;
  o.machines = 12;
  o.seed = 21;
  const RoomModel model = make_synthetic_model(o);
  const AnalyticOptimizer opt(model);
  const ClosedFormResult r =
      opt.solve(all_machines(model), model.total_capacity() * 0.7);
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_NEAR(predicted_cpu_temp(model, r.allocation, i), model.t_max, 1e-8)
        << "machine " << i;
  }
}

TEST(ClosedForm, LoadsSumToTotal) {
  SyntheticModelOptions o;
  o.machines = 9;
  o.seed = 22;
  const RoomModel model = make_synthetic_model(o);
  const AnalyticOptimizer opt(model);
  for (const double frac : {0.3, 0.55, 0.8}) {
    const double load = model.total_capacity() * frac;
    const ClosedFormResult r = opt.solve(all_machines(model), load);
    EXPECT_NEAR(r.allocation.total_load(), load, 1e-8);
  }
}

TEST(ClosedForm, TacIsLinearDecreasingInLoad) {
  // Eq. 21 is affine in L with negative slope w1/sum_ab.
  const RoomModel model = two_machine_model();
  const AnalyticOptimizer opt(model);
  const double t1 = opt.solve(all_machines(model), 50.0).allocation.t_ac;
  const double t2 = opt.solve(all_machines(model), 100.0).allocation.t_ac;
  const double t3 = opt.solve(all_machines(model), 150.0).allocation.t_ac;
  EXPECT_GT(t1, t2);
  EXPECT_GT(t2, t3);
  EXPECT_NEAR(t1 - t2, t2 - t3, 1e-9);  // affine
  EXPECT_NEAR(t1 - t2, 50.0 * 2.0 / 8.0, 1e-9);
}

TEST(ClosedForm, SubsetSolvesUseOnlyTheSubset) {
  const RoomModel model = two_machine_model();
  const AnalyticOptimizer opt(model);
  const ClosedFormResult r = opt.solve({1}, 40.0);
  EXPECT_DOUBLE_EQ(r.allocation.loads[0], 0.0);
  EXPECT_FALSE(r.allocation.on[0]);
  EXPECT_TRUE(r.allocation.on[1]);
  EXPECT_NEAR(r.allocation.loads[1], 40.0, 1e-9);
  // Single machine at T_max: T_ac from Eq. 21 degenerates to Eq. 18 inverse.
  EXPECT_NEAR(predicted_cpu_temp(model, r.allocation, 1), model.t_max, 1e-9);
}

TEST(ClosedForm, FlagsOutOfBoundsLoads) {
  SyntheticModelOptions o;
  o.machines = 10;
  o.seed = 23;
  const RoomModel model = make_synthetic_model(o);
  const AnalyticOptimizer opt(model);
  // Tiny total load over many ON machines: the "hot" machines want negative
  // loads at the shared T_max boundary.
  const ClosedFormResult r =
      opt.solve(all_machines(model), model.total_capacity() * 0.02);
  EXPECT_FALSE(r.loads_in_bounds);
}

TEST(ClosedForm, InputValidation) {
  const RoomModel model = two_machine_model();
  const AnalyticOptimizer opt(model);
  EXPECT_THROW(opt.solve({}, 10.0), std::invalid_argument);
  EXPECT_THROW(opt.solve({0}, -1.0), std::invalid_argument);
  EXPECT_THROW(opt.solve({0, 0}, 10.0), std::invalid_argument);
  EXPECT_THROW(opt.solve({5}, 10.0), std::invalid_argument);
}

TEST(ClosedForm, RejectsHeterogeneousW1) {
  RoomModel model = two_machine_model();
  model.machines[1].power.w1 = 3.0;
  EXPECT_THROW(AnalyticOptimizer{model}, std::invalid_argument);
}

// --- property test: the closed form matches the independent LP solver ---
// Whenever the closed-form answer respects the bounds it dropped, the two
// optimizers solve the same problem and must agree on T_ac, the loads and
// the objective.
class ClosedFormVsLp : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosedFormVsLp, AgreeOnInteriorInstances) {
  SyntheticModelOptions o;
  o.machines = 8;
  o.seed = GetParam();
  const RoomModel model = make_synthetic_model(o);
  const AnalyticOptimizer analytic(model);
  const LpOptimizer lp(model);

  for (const double frac : {0.45, 0.65, 0.85}) {
    const double load = model.total_capacity() * frac;
    const ClosedFormResult cf = analytic.solve(all_machines(model), load);
    if (!cf.within_bounds()) continue;  // LP solves a different (bounded) problem
    const auto bounded = lp.solve(all_machines(model), load);
    ASSERT_TRUE(bounded.has_value());
    EXPECT_NEAR(bounded->t_ac, cf.allocation.t_ac, 1e-5);
    EXPECT_NEAR(bounded->total_power_w, cf.allocation.total_power_w,
                1e-4 * std::abs(cf.allocation.total_power_w));
    for (size_t i = 0; i < model.size(); ++i) {
      EXPECT_NEAR(bounded->loads[i], cf.allocation.loads[i], 1e-4)
          << "machine " << i << " seed " << GetParam() << " frac " << frac;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ClosedFormVsLp,
                         ::testing::Range<uint64_t>(100, 130));

}  // namespace
}  // namespace coolopt::core

namespace coolopt::core {
namespace {

using test_support::all_machines;

TEST(ShadowPrices, LambdaMatchesEq16AndIsPositive) {
  const RoomModel model = []{
    SyntheticModelOptions o;
    o.machines = 6;
    o.seed = 301;
    return make_synthetic_model(o);
  }();
  const AnalyticOptimizer opt(model);
  const ClosedFormResult r =
      opt.solve(all_machines(model), model.total_capacity() * 0.6);
  double sum_ab = 0.0;
  for (const auto& m : model.machines) sum_ab += m.ab_ratio();
  EXPECT_NEAR(r.lambda, model.cooler.cfac * model.machines[0].power.w1 / sum_ab,
              1e-9);
  EXPECT_GT(r.lambda, 0.0);
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_GT(r.mu[i], 0.0) << i;
    EXPECT_NEAR(r.mu[i],
                r.lambda / (model.machines[i].thermal.beta *
                            model.machines[i].power.w1),
                1e-12);
  }
}

TEST(ShadowPrices, MarginalPowerPerLoadMatchesFiniteDifference) {
  SyntheticModelOptions o;
  o.machines = 7;
  o.seed = 302;
  const RoomModel model = make_synthetic_model(o);
  const AnalyticOptimizer opt(model);
  const double load = model.total_capacity() * 0.6;
  const double dl = 0.01;
  const double p0 =
      opt.solve(all_machines(model), load).allocation.total_power_w;
  const double p1 =
      opt.solve(all_machines(model), load + dl).allocation.total_power_w;
  const ClosedFormResult r = opt.solve(all_machines(model), load);
  EXPECT_NEAR((p1 - p0) / dl, r.marginal_power_per_load, 1e-6);
}

TEST(ShadowPrices, MuMatchesTmaxFiniteDifference) {
  SyntheticModelOptions o;
  o.machines = 6;
  o.seed = 303;
  RoomModel model = make_synthetic_model(o);
  const double load = model.total_capacity() * 0.6;
  const double dt = 1e-4;

  const AnalyticOptimizer base_opt(model);
  const ClosedFormResult base = base_opt.solve(all_machines(model), load);

  // Relax machine 2's ceiling only. The shared-t_max closed form cannot
  // express per-machine ceilings directly, but relaxing T_max for machine i
  // is identical to lowering its gamma by the same amount.
  RoomModel relaxed = model;
  relaxed.machines[2].thermal.gamma -= dt;
  const AnalyticOptimizer relaxed_opt(relaxed);
  const double p_relaxed =
      relaxed_opt.solve(all_machines(relaxed), load).allocation.total_power_w;
  const double p_base = base.allocation.total_power_w;
  EXPECT_NEAR((p_base - p_relaxed) / dt, base.mu[2],
              std::abs(base.mu[2]) * 1e-4 + 1e-6);
}

}  // namespace
}  // namespace coolopt::core
