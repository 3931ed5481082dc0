// Test oracle: the bounded optimum over a fixed ON set by brute force over
// the cool-air temperature. At each of 20,001 evenly spaced T_ac in
// [t_ac_min, t_ac_max] it fills the ON machines in ascending w1 (ties by
// index) up to min(capacity_i, the load that puts machine i at T_max) and
// scores the allocation with Allocation::finalize. core::BoundedOptimizer
// must match or beat the best grid point.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/allocation.h"
#include "core/model.h"

namespace coolopt::core {

/// The cheapest grid allocation that carries `load` with every ON machine
/// at or under T_max, or std::nullopt when no grid point does.
std::optional<Allocation> tac_grid_best(const RoomModel& model,
                                        const std::vector<size_t>& on_set,
                                        double load);

}  // namespace coolopt::core
