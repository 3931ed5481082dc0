// Test oracle: a small dense linear-programming solver (two-phase primal
// simplex with Bland's rule).
//
// The paper's closed form (Eqs. 18-22) drops the bounds 0 <= L_i <=
// capacity_i and the CRAC actuation range on T_ac. With them restored the
// problem is still a linear program in (T_ac, L_i) when the cooler is
// linear, so this general solver is an independent check on the closed
// form in its own domain and on core::BoundedOptimizer outside it
// (lp_optimizer.h states the LP). A dense tableau with Bland's
// anti-cycling rule is simple and exact enough for tens of variables; its
// cost grows as n^2 memory and faster than n^2 time.
//
// LpProblem keeps its rows in flat (row-major) arrays; solve_lp() builds
// and solves one tableau per call.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace coolopt::core {

/// min c.x  subject to  eq rows (a.x == b), le rows (a.x <= b), x >= 0.
class LpProblem {
 public:
  explicit LpProblem(size_t num_vars);

  size_t num_vars() const { return num_vars_; }

  /// Sets the objective coefficient of variable j.
  void set_objective(size_t j, double c);

  void add_equality(const std::vector<double>& coeffs, double rhs);
  void add_less_equal(const std::vector<double>& coeffs, double rhs);
  void add_greater_equal(const std::vector<double>& coeffs, double rhs);

  /// Appends a zero-filled row and returns its coefficient block (width
  /// num_vars) for in-place filling.
  double* add_equality_row(double rhs);
  double* add_less_equal_row(double rhs);

  /// Convenience: lower/upper bound on a single variable (on top of x >= 0).
  void add_upper_bound(size_t j, double ub);
  void add_lower_bound(size_t j, double lb);

  const std::vector<double>& objective() const { return objective_; }
  size_t equality_count() const { return eq_rhs_.size(); }
  size_t inequality_count() const { return le_rhs_.size(); }
  const double* equality_coeffs(size_t r) const {
    return eq_coeffs_.data() + r * num_vars_;
  }
  double equality_rhs(size_t r) const { return eq_rhs_[r]; }
  const double* inequality_coeffs(size_t r) const {
    return le_coeffs_.data() + r * num_vars_;
  }
  double inequality_rhs(size_t r) const { return le_rhs_[r]; }

 private:
  void check_row(const std::vector<double>& coeffs) const;

  size_t num_vars_;
  std::vector<double> objective_;
  std::vector<double> eq_coeffs_;  // row-major, stride num_vars_
  std::vector<double> eq_rhs_;
  std::vector<double> le_coeffs_;  // row-major, stride num_vars_
  std::vector<double> le_rhs_;
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
};

const char* to_string(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;
  double objective = 0.0;
  /// Simplex pivots across both phases.
  size_t iterations = 0;
};

/// Solves the LP. Deterministic; terminates on degenerate problems
/// (Bland's rule). Tolerance ~1e-9 on feasibility/optimality.
LpSolution solve_lp(const LpProblem& problem);

}  // namespace coolopt::core
