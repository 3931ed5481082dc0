// Extra: the energy cost of the temperature ceiling, and a ground-truth
// check of the paper's shadow prices (Eqs. 15-16).
//
// Operators pick T_max; the closed form says each degree of relaxation on
// machine i is worth mu_i watts, i.e. relaxing every ceiling together is
// worth sum(mu_i) per degree. This bench sweeps T_max on the *simulator*
// (not the model), measures the holistic method's power at a fixed load,
// and compares the measured slope dP/dT_max against the model's sum(mu) —
// the kind of cross-validation only possible because the testbed stand-in
// is independent of the optimizer.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "control/setpoint_planner.h"
#include "core/closed_form.h"
#include "core/engine.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Extra: total power vs the CPU temperature ceiling (scenario #8, "
              "65%% load)\n\n");

  // Profile once; the ceiling is an operator constraint applied afterwards.
  sim::MachineRoom room(benchsup::standard_options().room);
  const auto profile =
      profiling::profile_room(room, profiling::ProfilingOptions::fast());
  const control::SetPointPlanner sp =
      control::SetPointPlanner::from_profile(profile.cooler);

  const double load = profile.model.total_capacity() * 0.65;
  const std::vector<double> ceilings = {45.0, 46.0, 47.0, 48.0, 49.0, 50.0};

  util::TextTable out({"T_max (C)", "measured power (W)", "machines ON",
                       "T_ac achieved (C)", "model sum(mu) (W/K)"});
  std::vector<double> powers;
  std::vector<double> sum_mus;
  for (const double t_max : ceilings) {
    core::RoomModel model = profile.model;
    model.t_max = t_max;
    const core::PlanEngine planner(model, core::PlannerOptions{1.0});
    control::ExperimentRunner runner(room, sp, model);
    const auto plan = planner.solve({core::Scenario::by_number(8), load}).plan;
    if (!plan) {
      out.row({util::strf("%.0f", t_max), "infeasible", "-", "-", "-"});
      powers.push_back(-1.0);
      sum_mus.push_back(0.0);
      continue;
    }
    const auto m = runner.run(*plan);
    powers.push_back(m.total_power_w);

    // Model-side marginal: sum of mu over the chosen ON set (margined model,
    // as the planner solves it).
    core::RoomModel margined = model;
    margined.t_max -= 1.0;
    std::vector<size_t> on_set;
    for (size_t i = 0; i < model.size(); ++i) {
      if (plan->allocation.on[i]) on_set.push_back(i);
    }
    double sum_mu = 0.0;
    const core::AnalyticOptimizer analytic(margined);
    const auto cf = analytic.solve(on_set, load);
    for (const size_t i : on_set) sum_mu += cf.mu[i];
    sum_mus.push_back(sum_mu);

    out.row({util::strf("%.0f", t_max), util::strf("%.0f", m.total_power_w),
             util::strf("%zu", m.machines_on),
             util::strf("%.2f", m.t_ac_achieved_c), util::strf("%.1f", sum_mu)});
  }
  std::printf("%s\n", out.render().c_str());

  // Shape: power is non-increasing in the ceiling (a looser constraint can
  // never cost energy), and the measured slope has the magnitude the model's
  // shadow prices predict (within a factor ~3: the model's cfac is a
  // linearization and the ON set changes along the sweep).
  bool monotone = true;
  for (size_t i = 1; i < powers.size(); ++i) {
    if (powers[i] < 0.0 || powers[i - 1] < 0.0) continue;
    if (powers[i] > powers[i - 1] + 8.0) monotone = false;  // noise allowance
  }
  const double measured_slope =
      (powers.front() - powers.back()) / (ceilings.back() - ceilings.front());
  const double mean_mu = benchsup::saving_pct(1.0, 1.0) * 0.0 +
                         (sum_mus.front() + sum_mus.back()) / 2.0;
  std::printf("Measured dP/dT_max ~= %.1f W/K; model's sum(mu) ~= %.1f W/K\n",
              measured_slope, mean_mu);

  const bool pass = monotone && measured_slope > 0.0 &&
                    measured_slope < 3.0 * mean_mu &&
                    measured_slope > mean_mu / 3.0;
  std::printf("\nShape check (power non-increasing in T_max; measured marginal "
              "within 3x of the Eq. 15 shadow prices): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
