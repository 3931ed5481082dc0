#include "core/lp_optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/simplex.h"
#include "obs/obs.h"
#include "obs/scoped_timer.h"

namespace coolopt::core {
namespace {

/// Worst primal-feasibility violation of an LP solution against the model's
/// own constraints (load conservation, temperature ceilings, boxes) —
/// observability's KKT residual for the bounded solver. Only evaluated when
/// a sink is attached.
double lp_residual(const RoomModel& model, const size_t* on_set, size_t count,
                   double total_load, const LpSolution& sol) {
  const double t_ac = sol.x[0];
  double residual = std::max(0.0, model.t_ac_min - t_ac);
  residual = std::max(residual, t_ac - model.t_ac_max);
  double load_sum = 0.0;
  for (size_t j = 0; j < count; ++j) {
    const MachineModel& m = model.machines[on_set[j]];
    const double li = sol.x[1 + j];
    load_sum += li;
    residual = std::max(residual, -li);
    residual = std::max(residual, li - m.capacity);
    const double t_cpu = m.thermal.predict(t_ac, m.power.predict(li));
    residual = std::max(residual, t_cpu - model.t_max);
  }
  return std::max(residual, std::abs(load_sum - total_load));
}

}  // namespace

LpOptimizer::LpOptimizer(RoomModel model)
    : LpOptimizer(share_model(std::move(model))) {}

LpOptimizer::LpOptimizer(SharedRoomModel model) : model_(std::move(model)) {
  model_->validate();
}

LpOptimizer::LpOptimizer(SharedRoomModel model, PreValidated)
    : model_(std::move(model)) {}

bool LpOptimizer::solve_into(const size_t* on_set, size_t k, double total_load,
                             LpWorkspace& ws, Allocation& out) const {
  // Variables: x[0] = T_ac, x[1..k] = loads of on_set machines, all >= 0.
  // (T_ac >= 0 is implied; the explicit t_ac_min bound dominates it for any
  // physically meaningful model.)
  LpProblem& lp = ws.problem;
  lp.reset(1 + k);

  // Objective: minimize IT power + cooling power. Constant terms (w2 sums,
  // cfac * t_sp_ref, fan) are added back after solving.
  lp.set_objective(0, -model_->cooler.cfac);
  for (size_t j = 0; j < k; ++j) {
    lp.set_objective(1 + j, model_->machines[on_set[j]].power.w1);
  }

  // Load conservation.
  {
    double* row = lp.add_equality_row(total_load);
    for (size_t j = 0; j < k; ++j) row[1 + j] = 1.0;
  }

  // Temperature ceilings: alpha*T_ac + beta*w1*L <= T_max - gamma - beta*w2.
  for (size_t j = 0; j < k; ++j) {
    const MachineModel& m = model_->machines[on_set[j]];
    double* row = lp.add_less_equal_row(
        model_->t_max - m.thermal.gamma - m.thermal.beta * m.power.w2);
    row[0] = m.thermal.alpha;
    row[1 + j] = m.thermal.beta * m.power.w1;
  }

  // Capacity bounds and T_ac range.
  for (size_t j = 0; j < k; ++j) {
    lp.add_upper_bound(1 + j, model_->machines[on_set[j]].capacity);
  }
  lp.add_upper_bound(0, model_->t_ac_max);
  lp.add_lower_bound(0, model_->t_ac_min);

  obs::ScopedTimer timer(obs::maybe_histogram("optimizer.lp.solve_us"));
  solve_lp_into(lp, ws.tableau, ws.solution);
  const LpSolution& sol = ws.solution;
  const bool feasible = sol.status == LpStatus::kOptimal;

  obs::count("optimizer.lp.solves");
  if (!feasible) obs::count("optimizer.lp.infeasible");
  obs::observe("optimizer.lp.iterations", static_cast<double>(sol.iterations));
  double residual = 0.0;
  if ((obs::metrics() != nullptr || obs::trace() != nullptr) && feasible) {
    residual = lp_residual(*model_, on_set, k, total_load, sol);
    obs::observe("optimizer.lp.kkt_residual", residual);
  }
  if (obs::RunTrace* tr = obs::trace()) {
    tr->record_solve(obs::SolveSample{"lp", static_cast<uint64_t>(k),
                                      static_cast<uint64_t>(sol.iterations),
                                      timer.elapsed_us(), feasible, residual});
  }

  if (!feasible) return false;

  out.loads.assign(model_->size(), 0.0);
  out.on.assign(model_->size(), false);
  out.t_ac = sol.x[0];
  for (size_t j = 0; j < k; ++j) {
    out.on[on_set[j]] = true;
    // Snap simplex round-off into the box so downstream checks are clean.
    double li = sol.x[1 + j];
    if (li < 0.0 && li > -1e-7) li = 0.0;
    out.loads[on_set[j]] = li;
  }
  out.finalize(*model_);
  return true;
}

std::optional<Allocation> LpOptimizer::solve(const std::vector<size_t>& on_set,
                                             double total_load) const {
  model_->validate_on_set(on_set, total_load, "LpOptimizer::solve");
  LpWorkspace ws;
  Allocation alloc;
  if (!solve_into(on_set.data(), on_set.size(), total_load, ws, alloc)) {
    return std::nullopt;
  }
  return alloc;
}

}  // namespace coolopt::core
