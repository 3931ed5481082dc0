// The eight evaluation scenarios of Fig. 4, and the plan PlanEngine
// (core/engine.h) turns a (scenario, load) into: a concrete allocation +
// cool-air temperature.
//
//                 no AC control            AC control
//   no consol.    #1 Even  #2 Bottom-up    #4 Even  #5 Bottom-up  #6 Optimal
//   consolidation          #3 Bottom-up             #7 Bottom-up  #8 Optimal
//
// Knobs (Section IV-B):
//   * Load distribution: Even / Bottom-up (cool job allocation) / Optimal
//     (the paper's closed form; #8 additionally uses the optimal
//     consolidation algorithm).
//   * AC control: when ON, the cool-air temperature is raised as high as
//     the CPU-temperature constraint allows for the chosen allocation;
//     when OFF it stays at the conservative fixed value that keeps every
//     machine safe at full load.
//   * Consolidation: when ON, machines with no load are switched off.
#pragma once

#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

enum class Distribution { kEven, kBottomUp, kOptimal };

const char* to_string(Distribution d);

struct Scenario {
  int number = 0;  ///< 1-8 as in Fig. 4 (0 for ad-hoc combinations)
  Distribution distribution = Distribution::kEven;
  bool ac_control = false;
  bool consolidation = false;

  std::string name() const;

  /// The paper's eight scenarios, in Fig. 4 numbering.
  static const std::vector<Scenario>& all8();
  /// Scenario by Fig. 4 number (throws std::out_of_range on bad number).
  static Scenario by_number(int number);
};

/// Planner options.
struct PlannerOptions {
  /// Safety margin subtracted from T_max when choosing T_ac, so that model
  /// error on the real system (or simulator) does not push a CPU over the
  /// ceiling. 0 for pure-model studies.
  double t_max_margin = 0.0;
};

/// A planned operating point plus provenance diagnostics.
struct Plan {
  Allocation allocation;
  Scenario scenario;
  double load = 0.0;
  /// True when the Optimal distribution came from the closed form alone;
  /// false when the bounded fallback was engaged (out-of-bounds loads, or a
  /// w1 that varies between machines).
  bool closed_form_pure = true;
};

}  // namespace coolopt::core
