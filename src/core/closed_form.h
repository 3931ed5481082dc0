// The paper's closed-form optimal solution (Section III-A, Eqs. 18-22).
//
// For a fixed set ON of powered machines and total load L, the energy
// optimum under the linear models places every ON machine exactly at the
// temperature ceiling T_max (all Lagrange multipliers are strictly
// positive), which yields:
//
//   K_i    = (T_max - beta_i w2 - gamma_i) / (beta_i w1)          (Eq. 19)
//   T_ac*  = (sum K_i - L) * w1 / sum(alpha_i / beta_i)           (Eq. 21)
//   L_i*   = K_i - (sum K_i - L) * (alpha_i/beta_i)
//                                   / sum(alpha_i/beta_i)         (Eq. 22)
//
// Solving is O(|ON|). The closed form knows nothing about the bounds
// 0 <= L_i <= capacity_i or the CRAC's T_ac range; the result therefore
// carries `within_bounds` diagnostics, and callers that need a guaranteed
// feasible answer fall back to BoundedOptimizer (bounded.h), which solves
// the same problem with the bounds restored, when it is false.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

struct ClosedFormResult {
  Allocation allocation;

  // --- diagnostics ---
  bool loads_in_bounds = false;   ///< every L_i* in [0, capacity_i]
  bool t_ac_in_bounds = false;    ///< T_ac* within [t_ac_min, t_ac_max]
  double sum_k = 0.0;             ///< sum of K_i over ON
  double sum_ab = 0.0;            ///< sum of alpha_i/beta_i over ON

  // --- shadow prices (Eqs. 15-16) ---
  /// The paper's Eq. 16 multiplier, lambda = cfac*w1 / sum(alpha/beta):
  /// the *cooling-side* marginal power of one more unit of load (each
  /// extra unit forces colder supply air). Strictly positive — the paper's
  /// proof that every temperature constraint binds.
  double lambda = 0.0;
  /// The full marginal total power per unit of load: lambda plus the
  /// direct computing term (1 + q_coeff)*w1. This is what dP_total/dL
  /// actually measures (finite-difference-verified in the tests).
  double marginal_power_per_load = 0.0;
  /// mu_i = lambda / (beta_i * w1) (Eq. 15): the total power saved per
  /// degree of T_max relaxation on machine i (W/K). Indexed like the
  /// model's machines; zero for OFF machines. Filled by solve() only:
  /// solve_into, the engine's per-probe call, leaves it untouched.
  std::vector<double> mu;

  bool within_bounds() const { return loads_in_bounds && t_ac_in_bounds; }
};

class AnalyticOptimizer {
 public:
  /// Validates the model; the closed form additionally requires
  /// RoomModel::uniform_w1() (the paper's assumption) and throws
  /// std::invalid_argument otherwise.
  explicit AnalyticOptimizer(RoomModel model);

  /// Shares an immutable model instead of copying it (the PlanEngine path).
  explicit AnalyticOptimizer(SharedRoomModel model);

  /// Shares a model the caller has already validated, and its RoomSoA: no
  /// copy, no re-validation — only the O(n) uniform-w1 check the closed form
  /// itself needs. This is what keeps warm PlanEngine construction cheap.
  AnalyticOptimizer(SharedRoomModel model, std::shared_ptr<const RoomSoA> soa,
                    PreValidated);

  /// Closed form over the machines listed in `on_set` (indices into the
  /// model). Throws std::invalid_argument on an empty set, duplicate
  /// indices, or negative load.
  ClosedFormResult solve(const std::vector<size_t>& on_set, double total_load) const;

  /// Zero-allocation form: writes into `out`, reusing every buffer it
  /// already owns, and skips the duplicate/range validation (the engine's
  /// subsets are valid by construction — pass through solve() when the set
  /// comes from outside). The Eq. 21/22 sums read the precomputed SoA
  /// K_i / (alpha_i/beta_i) arrays in on_set order, so the result is
  /// bit-for-bit what solve() returns, except `mu`, which it does not fill.
  void solve_into(const size_t* on_set, size_t count, double total_load,
                  ClosedFormResult& out) const;

  const RoomModel& model() const { return *model_; }

 private:
  /// Throws unless RoomModel::uniform_w1(), then fills the arrays below.
  void init();

  SharedRoomModel model_;
  std::shared_ptr<const RoomSoA> soa_;
  double w1_ = 0.0;  // shared by all machines
  // SoA mirrors of k_constant(t_max) and ab_ratio() per machine: the exact
  // doubles the AoS calls produce, laid out contiguously for the sum loops.
  std::vector<double> k_;
  std::vector<double> ab_;
};

}  // namespace coolopt::core
