// The bounded optimum over a fixed ON set: the paper's problem with the
// bounds its closed form (Eqs. 18-22) drops put back,
//
//   min   P_IT + P_ac(T_ac, P_IT)       (exactly Allocation::finalize's total)
//   s.t.  sum_i L_i = L
//         alpha_i T_ac + beta_i (w1_i L_i + w2_i) + gamma_i <= T_max
//         0 <= L_i <= capacity_i
//         t_ac_min <= T_ac <= t_ac_max
//
// At a fixed T_ac, machine i can carry at most
//
//   u_i(T_ac) = min(capacity_i, (T_max - gamma_i - beta_i w2_i
//                                - alpha_i T_ac) / (beta_i w1_i)).
//
// The total rises with IT power whenever q_coeff > -1 (RoomModel::validate
// enforces it), so the cheapest split at that T_ac is a fractional
// knapsack: fill the ON machines in ascending w1_i (ties by index) up to
// their caps. The resulting minimum IT power F(T_ac) is the value of a
// linear program whose right-hand side moves linearly with T_ac, hence
// convex and piecewise linear; the total V(T_ac) = F + max(min_power_w,
// linear cooler) is then convex too. Its minimum lies at an end of the
// feasible T_ac range or at a breakpoint: a cap switching between capacity
// and the thermal bound, a change of the marginal (partly filled) machine,
// or the cooler reaching its floor. One ascending sweep with running sums
// visits every breakpoint in O(n log n) time and O(n) scratch. When
// several T_ac tie, the largest wins (warmer air, same power).
//
// With a uniform w1 the fill order is irrelevant, V falls with T_ac, and
// the sweep returns the largest feasible T_ac: Eq. 21 clamped into range.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

/// Grow-only O(n) scratch for one bounded solve; one lives in each
/// thread's SolveScratch, so warm solves never touch the heap.
struct BoundedWorkspace {
  std::vector<uint32_t> by_w1;   ///< ON machines, ascending (w1, index)
  std::vector<uint32_t> by_tau;  ///< positions in by_w1, ascending switch T_ac
  std::vector<char> thermal;     ///< per position: the thermal bound binds

  size_t bytes() const {
    return (by_w1.capacity() + by_tau.capacity()) * sizeof(uint32_t) +
           thermal.capacity();
  }
};

class BoundedOptimizer {
 public:
  /// Validates the model and derives its RoomSoA.
  explicit BoundedOptimizer(SharedRoomModel model);
  /// Shares a model the caller has already validated, and its RoomSoA (the
  /// PlanEngine path).
  BoundedOptimizer(SharedRoomModel model, std::shared_ptr<const RoomSoA> soa,
                   PreValidated);

  /// Minimises the finalize() total over the `count` machines of `on_set`
  /// (distinct model indices; the rest stay OFF) carrying `total_load`, and
  /// writes the allocation into `out`, reusing its buffers. Returns false
  /// when no T_ac in [t_ac_min, t_ac_max] keeps every ON machine under
  /// T_max at zero load while the ON set carries the load (`out` is then
  /// unspecified).
  bool solve_into(const size_t* on_set, size_t count, double total_load,
                  BoundedWorkspace& ws, Allocation& out) const;

  /// u_i(T_ac) on a ceiling raised by `slack_c` degrees: the most load
  /// machine i carries at cool-air temperature `t_ac` with its CPU at or
  /// below T_max + slack_c. Negative when its idle draw alone breaks that
  /// ceiling. PlanEngine's servable load sums these.
  double cap(size_t i, double t_ac, double slack_c = 0.0) const {
    const double thermal = k_[i] - s_[i] * t_ac;
    return std::min(soa_->capacity[i],
                    slack_c == 0.0
                        ? thermal
                        : thermal + slack_c / (soa_->beta[i] * soa_->w1[i]));
  }

 private:
  SharedRoomModel model_;
  std::shared_ptr<const RoomSoA> soa_;
  // Per machine: u_i(T) = k_[i] - s_[i] * T on the thermal branch, which
  // takes over from capacity above tau_[i] and reaches zero at zero_[i].
  std::vector<double> k_;
  std::vector<double> s_;
  std::vector<double> tau_;
  std::vector<double> zero_;
};

}  // namespace coolopt::core
