#include "tests/oracle/lp_optimizer.h"

#include <utility>

#include "tests/oracle/simplex.h"

namespace coolopt::core {

LpOptimizer::LpOptimizer(RoomModel model) : model_(std::move(model)) {
  model_.validate();
}

std::optional<Allocation> LpOptimizer::solve(const std::vector<size_t>& on_set,
                                             double total_load) const {
  model_.validate_on_set(on_set, total_load, "LpOptimizer::solve");
  const size_t k = on_set.size();

  // Variables: x[0] = T_ac, x[1..k] = loads of on_set machines, all >= 0.
  // (T_ac >= 0 is implied; the explicit t_ac_min bound dominates it for any
  // physically meaningful model.)
  LpProblem lp(1 + k);

  // Objective: the IT and cooling terms that vary with the plan. The
  // constants (w2 sums, cfac * t_sp_ref, fan) are left out, and so are the
  // cooler's q_coeff term and min_power_w floor; finalize() scores the
  // result with all of them, which is why BoundedOptimizer can beat it.
  lp.set_objective(0, -model_.cooler.cfac);
  for (size_t j = 0; j < k; ++j) {
    lp.set_objective(1 + j, model_.machines[on_set[j]].power.w1);
  }

  // Load conservation.
  {
    double* row = lp.add_equality_row(total_load);
    for (size_t j = 0; j < k; ++j) row[1 + j] = 1.0;
  }

  // Temperature ceilings: alpha*T_ac + beta*w1*L <= T_max - gamma - beta*w2.
  for (size_t j = 0; j < k; ++j) {
    const MachineModel& m = model_.machines[on_set[j]];
    double* row = lp.add_less_equal_row(
        model_.t_max - m.thermal.gamma - m.thermal.beta * m.power.w2);
    row[0] = m.thermal.alpha;
    row[1 + j] = m.thermal.beta * m.power.w1;
  }

  // Capacity bounds and T_ac range.
  for (size_t j = 0; j < k; ++j) {
    lp.add_upper_bound(1 + j, model_.machines[on_set[j]].capacity);
  }
  lp.add_upper_bound(0, model_.t_ac_max);
  lp.add_lower_bound(0, model_.t_ac_min);

  const LpSolution sol = solve_lp(lp);
  if (sol.status != LpStatus::kOptimal) return std::nullopt;

  Allocation out;
  out.loads.assign(model_.size(), 0.0);
  out.on.assign(model_.size(), false);
  out.t_ac = sol.x[0];
  for (size_t j = 0; j < k; ++j) {
    out.on[on_set[j]] = true;
    // Snap simplex round-off into the box so downstream checks are clean.
    double li = sol.x[1 + j];
    if (li < 0.0 && li > -1e-7) li = 0.0;
    out.loads[on_set[j]] = li;
  }
  out.finalize(model_);
  return out;
}

std::optional<double> LpOptimizer::max_load(
    const std::vector<size_t>& on_set) const {
  model_.validate_on_set(on_set, 0.0, "LpOptimizer::max_load");
  const size_t k = on_set.size();
  // Variables as in solve(): x[0] = T_ac, x[1..k] = loads.
  LpProblem lp(1 + k);
  for (size_t j = 0; j < k; ++j) lp.set_objective(1 + j, -1.0);
  for (size_t j = 0; j < k; ++j) {
    const MachineModel& m = model_.machines[on_set[j]];
    double* row = lp.add_less_equal_row(
        model_.t_max - m.thermal.gamma - m.thermal.beta * m.power.w2);
    row[0] = m.thermal.alpha;
    row[1 + j] = m.thermal.beta * m.power.w1;
    lp.add_upper_bound(1 + j, m.capacity);
  }
  lp.add_upper_bound(0, model_.t_ac_max);
  lp.add_lower_bound(0, model_.t_ac_min);

  const LpSolution sol = solve_lp(lp);
  if (sol.status != LpStatus::kOptimal) return std::nullopt;
  return -sol.objective;
}

}  // namespace coolopt::core
