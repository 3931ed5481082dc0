// Independent verification of operating points against a RoomModel:
// feasibility audits and a numerical local-optimality check.
//
// The optimizers in this library are cross-checked three ways: closed form
// and bounded solver vs the tests/oracle LP and T_ac grid, event
// consolidation vs enumeration, and — here — a derivative-free
// perturbation audit that takes *any* allocation and tries to improve it
// with small feasible moves (pairwise load transfers, cool-air nudges with
// compensating load shifts). For a true constrained optimum no such move
// may reduce the model's predicted total power; this is the KKT story of
// Section III-A checked numerically, with no shared code or assumptions
// with the solvers it audits.
#pragma once

#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

/// One violated requirement found by audit_feasibility.
struct FeasibilityIssue {
  enum class Kind {
    kLoadSum,        ///< loads do not sum to the required total
    kNegativeLoad,
    kOverCapacity,
    kLoadOnOffMachine,
    kTemperature,    ///< predicted CPU temp above t_max
    kTacRange,       ///< t_ac outside [t_ac_min, t_ac_max]
  };
  Kind kind;
  int machine = -1;  ///< -1 when not machine-specific
  double magnitude = 0.0;
  std::string describe() const;
};

/// Audits an allocation against the model's constraints for total load
/// `load`. Empty result == feasible.
std::vector<FeasibilityIssue> audit_feasibility(const RoomModel& model,
                                                const Allocation& alloc,
                                                double load, double tol = 1e-6);

/// Result of the perturbation audit.
struct OptimalityAudit {
  bool locally_optimal = true;
  /// Best improvement found (W of predicted total power); 0 when none.
  double best_improvement_w = 0.0;
  std::string best_move;  ///< human-readable description of the move
};

/// Tries small feasible perturbations of `alloc` (load transfers between
/// every ON pair; raising T_ac with compensating load reductions spread
/// over the ON set) and reports whether any reduces the model-predicted
/// total power by more than `tol_w`. `step` is the perturbation size in
/// load units / tenths of a degree. The allocation must be feasible.
OptimalityAudit audit_local_optimality(const RoomModel& model,
                                       const Allocation& alloc, double step = 0.25,
                                       double tol_w = 1e-6);

}  // namespace coolopt::core
