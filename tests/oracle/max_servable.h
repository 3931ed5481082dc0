// Test oracle: the largest load a scenario can serve on a set of machines,
// the question PlanEngine answers when a request cannot be fully served
// (the paper's maxL(A, P_b, k), Sec. III-B, without a power budget). It
// shares no code with the engine's answer: it never calls PlanEngine or
// BoundedOptimizer.
//
//   * Even and Bottom-up: rebuild the rule's own allocation at a load
//     (min_machines_for's coolness prefix with consolidation, every allowed
//     machine without; even_allocation / bottom_up_allocation; the AC
//     control rule's max_safe_t_ac or the fixed conservative_t_ac), score
//     it with predicted_peak_cpu_temp, and bisect the load to 1e-13
//     relative. With consolidation each prefix is bisected on its own load
//     range: a longer prefix spreads the load thinner, so servability is not
//     monotone across prefixes.
//   * Optimal: LpOptimizer::max_load on the allowed machines or, with
//     consolidation, the best over every nonempty subset of them (at most
//     12 machines).
#pragma once

#include <cstddef>
#include <vector>

#include "core/model.h"
#include "core/scenario.h"

namespace coolopt::core {

/// The largest load at or below `load` that scenario `s` serves on the
/// `allowed` machines (ascending indices) of `model`, the planning model
/// (its t_max already margined). The Even and Bottom-up allocations count
/// as servable while no CPU exceeds T_max + `rule_slack_c`. Returns -1 when
/// not even zero load fits (a machine that stays ON cannot idle).
double oracle_max_servable(const RoomModel& model, const Scenario& s,
                           double load, const std::vector<size_t>& allowed,
                           double rule_slack_c);

}  // namespace coolopt::core
