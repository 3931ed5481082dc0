// LP formulation of the same optimization the closed form solves, with the
// physically necessary bounds restored:
//
//   min   sum_i w1_i L_i - cfac * T_ac      (+ constants)
//   s.t.  sum_i L_i = L
//         alpha_i T_ac + beta_i (w1_i L_i + w2_i) + gamma_i <= T_max
//         0 <= L_i <= capacity_i
//         t_ac_min <= T_ac <= t_ac_max
//
// Uses: (1) an independent cross-check of AnalyticOptimizer on instances
// where the closed form's assumptions hold (the two must agree, which the
// property tests assert); (2) the feasible fallback for instances where the
// closed form emits out-of-bounds loads (low total load, tight capacity);
// (3) support for heterogeneous w1 fleets, which the closed form excludes.
#pragma once

#include <optional>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"
#include "core/simplex.h"

namespace coolopt::core {

/// Reusable storage for one LP fallback solve: the problem rows, the simplex
/// tableau, and the solution vector, all grow-only. One lives in each
/// thread's SolveScratch so warm LP fallbacks never touch the heap.
struct LpWorkspace {
  LpProblem problem{1};
  SimplexWorkspace tableau;
  LpSolution solution;

  size_t bytes() const {
    return problem.bytes() + tableau.bytes() +
           solution.x.capacity() * sizeof(double);
  }
};

class LpOptimizer {
 public:
  explicit LpOptimizer(RoomModel model);

  /// Shares an immutable model instead of copying it (the PlanEngine path).
  explicit LpOptimizer(SharedRoomModel model);

  /// Shares a model the caller has already validated: no copy, no checks —
  /// construction is O(1).
  LpOptimizer(SharedRoomModel model, PreValidated);

  /// Optimal bounded allocation for the given ON set, or std::nullopt when
  /// infeasible (load above ON capacity, or the temperature ceiling cannot
  /// be met even at t_ac_min).
  std::optional<Allocation> solve(const std::vector<size_t>& on_set,
                                  double total_load) const;

  /// Zero-allocation form: builds the LP in `ws`, solves it with the
  /// workspace tableau, and writes the allocation into `out` (buffers
  /// reused). Skips the duplicate/range validation — engine subsets are
  /// valid by construction. Returns false when infeasible (`out` is then
  /// unspecified). Bit-for-bit the solve() result.
  bool solve_into(const size_t* on_set, size_t count, double total_load,
                  LpWorkspace& ws, Allocation& out) const;

  const RoomModel& model() const { return *model_; }

 private:
  SharedRoomModel model_;
};

}  // namespace coolopt::core
