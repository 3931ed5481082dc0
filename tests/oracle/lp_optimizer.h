// Test oracle: the bounded problem BoundedOptimizer solves, restated as a
// linear program and solved by the dense simplex in simplex.h:
//
//   min   sum_i w1_i L_i - cfac * T_ac      (+ constants)
//   s.t.  sum_i L_i = L
//         alpha_i T_ac + beta_i (w1_i L_i + w2_i) + gamma_i <= T_max
//         0 <= L_i <= capacity_i
//         t_ac_min <= T_ac <= t_ac_max
//
// Its objective omits the cooler's q_coeff * P_IT term and min_power_w
// floor, which Allocation::finalize's total includes, so with a
// heterogeneous w1 its plan is an upper bound on the bounded optimum, not
// the optimum itself. Tests and benches check the production solvers
// against it; cooloptd and cooloptctl never link it.
#pragma once

#include <optional>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

class LpOptimizer {
 public:
  /// Validates the model.
  explicit LpOptimizer(RoomModel model);

  /// Optimal bounded allocation for the given ON set, or std::nullopt when
  /// infeasible (load above ON capacity, or the temperature ceiling cannot
  /// be met even at t_ac_min).
  std::optional<Allocation> solve(const std::vector<size_t>& on_set,
                                  double total_load) const;

  /// The most load the ON set carries under the same constraints (the
  /// objective becomes max sum_i L_i), or std::nullopt when not even zero
  /// load fits: some machine's idle draw breaks T_max at t_ac_min.
  std::optional<double> max_load(const std::vector<size_t>& on_set) const;

 private:
  RoomModel model_;
};

}  // namespace coolopt::core
