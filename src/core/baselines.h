// Baseline load-allocation heuristics the paper evaluates against
// (Section IV-B):
//
//   Even       — split the total load equally across the ON machines; the
//                standard load-balancing practice.
//   Bottom-up  — "cool job allocation" [Bash & Forman, USENIX ATC'07]:
//                fill machines to capacity coolest-spot-first. On the
//                paper's rack the coolest spots are at the bottom, hence
//                the name.
//
// Both come in consolidation (unused machines switched OFF) and
// no-consolidation (all machines ON) variants; the scenario engine
// composes them with the AC-control knob.
#pragma once

#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

/// Machines sorted coolest-first: by predicted idle CPU temperature at a
/// reference cool-air temperature (what an operator would measure when
/// ranking spots), ties by index. This is the fill order for Bottom-up and
/// the power-on order for the baselines' consolidation.
std::vector<size_t> coolness_order(const RoomModel& model,
                                   double reference_t_ac = 15.0);

/// Fewest machines (taken coolest-first) whose summed capacity covers
/// `load`. Throws std::invalid_argument if the whole room cannot.
size_t min_machines_for(const RoomModel& model, double load,
                        const std::vector<size_t>& order);

/// Even split of `load` across `on_set`, written into `out` (its buffers
/// reused). If an equal share would exceed a machine's capacity, that
/// machine is pinned at capacity and the residual is split evenly across
/// the rest (repeats until it fits). Throws if the set's total capacity is
/// below `load`. t_ac is NOT chosen here (the scenario engine applies the
/// AC-control rule); it is set to 0.
void even_allocation(const RoomModel& model, double load,
                     const std::vector<size_t>& on_set, Allocation& out);

/// Cool-job allocation, written into `out`: fill the machines of `on_set`
/// to capacity in the order listed until the load is exhausted. List them
/// coolest-first (coolness_order) for the paper's rule. Machines left
/// without load stay ON (consolidation is the caller's knob). t_ac is set
/// to 0, as in even_allocation.
void bottom_up_allocation(const RoomModel& model, double load,
                          const std::vector<size_t>& on_set, Allocation& out);

}  // namespace coolopt::core
