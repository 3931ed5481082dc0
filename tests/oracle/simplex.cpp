#include "tests/oracle/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace coolopt::core {
namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau over the standard-form problem
///   min c.x  s.t.  A x = b (b >= 0), x >= 0
/// with an explicit basis; used for both phases.
class Tableau {
 public:
  Tableau(size_t rows, size_t cols)
      : b_(rows, 0.0), c_(cols, 0.0), basis_(rows, SIZE_MAX), rows_(rows),
        cols_(cols), a_(rows * cols, 0.0) {}

  double& a(size_t r, size_t c) { return a_[r * cols_ + c]; }
  double a(size_t r, size_t c) const { return a_[r * cols_ + c]; }
  std::vector<double> b_;
  std::vector<double> c_;
  std::vector<size_t> basis_;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Reduced cost of column j given the current basis (c_j - c_B . B^-1 A_j
  /// computed directly because the tableau is kept fully reduced).
  /// Runs Bland's-rule simplex iterations until optimal or unbounded.
  /// Returns false on unbounded.
  bool optimize() {
    // Price out basic columns from the objective first.
    for (size_t r = 0; r < rows_; ++r) {
      const size_t j = basis_[r];
      const double cj = c_[j];
      if (cj == 0.0) continue;
      for (size_t col = 0; col < cols_; ++col) c_[col] -= cj * a(r, col);
      obj_shift_ += cj * b_[r];
    }
    while (true) {
      // Bland: entering = smallest index with negative reduced cost.
      size_t enter = SIZE_MAX;
      for (size_t j = 0; j < cols_; ++j) {
        if (c_[j] < -kEps) {
          enter = j;
          break;
        }
      }
      if (enter == SIZE_MAX) return true;  // optimal

      // Ratio test; Bland tie-break on smallest basis variable index.
      size_t leave = SIZE_MAX;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < rows_; ++r) {
        const double arj = a(r, enter);
        if (arj > kEps) {
          const double ratio = b_[r] / arj;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leave == SIZE_MAX || basis_[r] < basis_[leave]))) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave == SIZE_MAX) return false;  // unbounded
      pivot(leave, enter);
    }
  }

  size_t pivots() const { return pivots_; }

  void pivot(size_t row, size_t col) {
    ++pivots_;
    const double p = a(row, col);
    for (size_t j = 0; j < cols_; ++j) a(row, j) /= p;
    b_[row] /= p;
    for (size_t r = 0; r < rows_; ++r) {
      if (r == row) continue;
      const double f = a(r, col);
      if (f == 0.0) continue;
      for (size_t j = 0; j < cols_; ++j) a(r, j) -= f * a(row, j);
      b_[r] -= f * b_[row];
    }
    const double fc = c_[col];
    if (fc != 0.0) {
      for (size_t j = 0; j < cols_; ++j) c_[j] -= fc * a(row, j);
      obj_shift_ += fc * b_[row];
    }
    basis_[row] = col;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> a_;  // rows * cols, row-major
  double obj_shift_ = 0.0;
  size_t pivots_ = 0;
};

}  // namespace

LpProblem::LpProblem(size_t num_vars)
    : num_vars_(num_vars), objective_(num_vars, 0.0) {
  if (num_vars == 0) throw std::invalid_argument("LpProblem: need >= 1 variable");
}

void LpProblem::set_objective(size_t j, double c) { objective_.at(j) = c; }

void LpProblem::check_row(const std::vector<double>& coeffs) const {
  if (coeffs.size() != num_vars_) {
    throw std::invalid_argument("LpProblem: row width != num_vars");
  }
}

double* LpProblem::add_equality_row(double rhs) {
  eq_coeffs_.resize(eq_coeffs_.size() + num_vars_, 0.0);
  eq_rhs_.push_back(rhs);
  return eq_coeffs_.data() + eq_coeffs_.size() - num_vars_;
}

double* LpProblem::add_less_equal_row(double rhs) {
  le_coeffs_.resize(le_coeffs_.size() + num_vars_, 0.0);
  le_rhs_.push_back(rhs);
  return le_coeffs_.data() + le_coeffs_.size() - num_vars_;
}

void LpProblem::add_equality(const std::vector<double>& coeffs, double rhs) {
  check_row(coeffs);
  double* row = add_equality_row(rhs);
  std::copy(coeffs.begin(), coeffs.end(), row);
}

void LpProblem::add_less_equal(const std::vector<double>& coeffs, double rhs) {
  check_row(coeffs);
  double* row = add_less_equal_row(rhs);
  std::copy(coeffs.begin(), coeffs.end(), row);
}

void LpProblem::add_greater_equal(const std::vector<double>& coeffs, double rhs) {
  check_row(coeffs);
  double* row = add_less_equal_row(-rhs);
  for (size_t j = 0; j < num_vars_; ++j) row[j] = -coeffs[j];
}

void LpProblem::add_upper_bound(size_t j, double ub) {
  if (j >= num_vars_) throw std::out_of_range("LpProblem: bound index");
  double* row = add_less_equal_row(ub);
  row[j] = 1.0;
}

void LpProblem::add_lower_bound(size_t j, double lb) {
  if (j >= num_vars_) throw std::out_of_range("LpProblem: bound index");
  double* row = add_less_equal_row(-lb);
  row[j] = -1.0;
}

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
  }
  return "?";
}

LpSolution solve_lp(const LpProblem& problem) {
  LpSolution out;
  const size_t n = problem.num_vars();
  const size_t n_eq = problem.equality_count();
  const size_t n_le = problem.inequality_count();
  const size_t m = n_eq + n_le;
  out.objective = 0.0;
  out.iterations = 0;
  if (m == 0) {
    // x >= 0 only: bounded iff all objective coefficients >= 0; optimum at 0.
    for (const double c : problem.objective()) {
      if (c < -kEps) {
        out.status = LpStatus::kUnbounded;
        return out;
      }
    }
    out.status = LpStatus::kOptimal;
    out.x.assign(n, 0.0);
    return out;
  }

  // Columns: n structural + n_le slacks + m artificials.
  const size_t slack0 = n;
  const size_t art0 = n + n_le;
  const size_t cols = n + n_le + m;
  Tableau t(m, cols);

  size_t row = 0;
  auto load_row = [&](const double* coeffs, double rhs, long slack_col) {
    double sign = rhs < 0.0 ? -1.0 : 1.0;
    for (size_t j = 0; j < n; ++j) t.a(row, j) = sign * coeffs[j];
    t.b_[row] = sign * rhs;
    if (slack_col >= 0) t.a(row, static_cast<size_t>(slack_col)) = sign * 1.0;
    // Artificial always added so phase 1 has a trivial starting basis. If a
    // slack has +1 coefficient it could serve as the basic var, but using
    // artificials uniformly keeps the code simple; they price out in phase 1.
    t.a(row, art0 + row) = 1.0;
    t.basis_[row] = art0 + row;
    ++row;
  };
  for (size_t i = 0; i < n_eq; ++i) {
    load_row(problem.equality_coeffs(i), problem.equality_rhs(i), -1);
  }
  for (size_t i = 0; i < n_le; ++i) {
    load_row(problem.inequality_coeffs(i), problem.inequality_rhs(i),
             static_cast<long>(slack0 + i));
  }

  // Phase 1: minimize sum of artificials.
  for (size_t j = art0; j < cols; ++j) t.c_[j] = 1.0;
  if (!t.optimize()) {
    // Phase-1 objective is bounded below by 0; unbounded cannot happen.
    out.status = LpStatus::kInfeasible;
    out.iterations = t.pivots();
    return out;
  }
  double phase1 = 0.0;
  for (size_t r = 0; r < m; ++r) {
    if (t.basis_[r] >= art0) phase1 += t.b_[r];
  }
  if (phase1 > 1e-7) {
    out.status = LpStatus::kInfeasible;
    out.iterations = t.pivots();
    return out;
  }

  // Drive any residual (degenerate) artificials out of the basis.
  for (size_t r = 0; r < m; ++r) {
    if (t.basis_[r] < art0) continue;
    size_t enter = SIZE_MAX;
    for (size_t j = 0; j < art0; ++j) {
      if (std::abs(t.a(r, j)) > kEps) {
        enter = j;
        break;
      }
    }
    if (enter != SIZE_MAX) t.pivot(r, enter);
    // If the whole row is zero the constraint was redundant; the artificial
    // stays basic at value 0, which is harmless as long as it never re-enters
    // (phase 2 gives artificials a prohibitive cost of 0 coefficient and we
    // simply forbid them from entering by leaving their reduced cost at +inf
    // via a large cost).
  }

  // Phase 2: original objective; artificials get a large cost so they never
  // re-enter (they are at 0, so the optimum is unaffected).
  t.c_.assign(cols, 0.0);
  for (size_t j = 0; j < n; ++j) t.c_[j] = problem.objective()[j];
  double big = 1.0;
  for (const double c : problem.objective()) big += std::abs(c);
  for (size_t j = art0; j < cols; ++j) t.c_[j] = 1e6 * big;
  if (!t.optimize()) {
    out.status = LpStatus::kUnbounded;
    out.iterations = t.pivots();
    return out;
  }

  out.status = LpStatus::kOptimal;
  out.iterations = t.pivots();
  out.x.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (t.basis_[r] < n) out.x[t.basis_[r]] = t.b_[r];
  }
  out.objective = 0.0;
  for (size_t j = 0; j < n; ++j) out.objective += problem.objective()[j] * out.x[j];
  return out;
}

}  // namespace coolopt::core
