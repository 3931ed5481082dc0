#include "core/closed_form.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/scoped_timer.h"

namespace coolopt::core {

AnalyticOptimizer::AnalyticOptimizer(RoomModel model)
    : AnalyticOptimizer(share_model(std::move(model))) {}

AnalyticOptimizer::AnalyticOptimizer(SharedRoomModel model)
    : model_(std::move(model)) {
  model_->validate();
  soa_ = std::make_shared<const RoomSoA>(RoomSoA::from(*model_));
  init();
}

AnalyticOptimizer::AnalyticOptimizer(SharedRoomModel model,
                                     std::shared_ptr<const RoomSoA> soa,
                                     PreValidated)
    : model_(std::move(model)), soa_(std::move(soa)) {
  init();
}

void AnalyticOptimizer::init() {
  if (!model_->uniform_w1()) {
    throw std::invalid_argument(
        "AnalyticOptimizer: the closed form assumes a uniform w1 across "
        "machines (paper Eq. 14); use BoundedOptimizer for heterogeneous "
        "fleets");
  }
  w1_ = model_->machines.front().power.w1;
  const size_t n = model_->size();
  k_.resize(n);
  ab_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    k_[i] = model_->machines[i].k_constant(model_->t_max);
    ab_[i] = model_->machines[i].ab_ratio();
  }
}

void AnalyticOptimizer::solve_into(const size_t* on_set, size_t count,
                                   double total_load,
                                   ClosedFormResult& out) const {
  obs::ScopedTimer timer(obs::maybe_histogram("optimizer.closed_form.solve_us"));

  const size_t n = model_->size();
  out.allocation.loads.assign(n, 0.0);
  out.allocation.on.assign(n, false);

  // Eq. 20-21: optimal cool-air temperature.
  double sum_k = 0.0;
  double sum_ab = 0.0;
  for (size_t j = 0; j < count; ++j) {
    const size_t i = on_set[j];
    sum_k += k_[i];
    sum_ab += ab_[i];
  }
  const double t_ac = (sum_k - total_load) * w1_ / sum_ab;

  // Eq. 22: optimal per-machine loads (every ON machine sits at T_max).
  bool loads_ok = true;
  for (size_t j = 0; j < count; ++j) {
    const size_t i = on_set[j];
    const double li = k_[i] - (sum_k - total_load) * ab_[i] / sum_ab;
    out.allocation.loads[i] = li;
    out.allocation.on[i] = true;
    if (li < -1e-9 || li > soa_->capacity[i] + 1e-9) loads_ok = false;
  }

  out.allocation.t_ac = t_ac;
  out.allocation.finalize(*model_, *soa_);
  out.loads_in_bounds = loads_ok;
  out.t_ac_in_bounds = t_ac >= model_->t_ac_min - 1e-9 &&
                       t_ac <= model_->t_ac_max + 1e-9;
  out.sum_k = sum_k;
  out.sum_ab = sum_ab;

  // Shadow prices, Eqs. 15-16 (see the header on how the paper's lambda
  // relates to the full marginal).
  out.lambda = model_->cooler.cfac * w1_ / sum_ab;
  out.marginal_power_per_load =
      out.lambda + (1.0 + model_->cooler.q_coeff) * w1_;

  obs::count("optimizer.closed_form.solves");
  // The O(n) KKT residual is a diagnostic for traced runs, not a cost every
  // served plan pays: it is computed only when a RunTrace is attached.
  if (obs::RunTrace* tr = obs::trace()) {
    // KKT stationarity puts every ON machine exactly at T_max (Eq. 17); the
    // residual is how far the emitted allocation actually lands from that.
    double residual = 0.0;
    for (size_t j = 0; j < count; ++j) {
      const size_t i = on_set[j];
      const MachineModel& m = model_->machines[i];
      const double t_cpu =
          m.thermal.predict(t_ac, m.power.predict(out.allocation.loads[i]));
      residual = std::max(residual, std::abs(t_cpu - model_->t_max));
    }
    obs::observe("optimizer.closed_form.kkt_residual_c", residual);
    tr->record_solve(obs::SolveSample{
        "closed_form", static_cast<uint64_t>(count), timer.elapsed_us(),
        loads_ok && out.t_ac_in_bounds, residual});
  }
}

ClosedFormResult AnalyticOptimizer::solve(const std::vector<size_t>& on_set,
                                          double total_load) const {
  model_->validate_on_set(on_set, total_load, "AnalyticOptimizer::solve");
  ClosedFormResult result;
  solve_into(on_set.data(), on_set.size(), total_load, result);
  result.mu.assign(model_->size(), 0.0);
  for (const size_t i : on_set) {
    result.mu[i] = result.lambda / (soa_->beta[i] * w1_);
  }
  return result;
}

}  // namespace coolopt::core
