// The explicit all-machines ON set: what the optimizer suites pass to the
// validating AnalyticOptimizer::solve / LpOptimizer::solve when every
// machine of the room is powered.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "core/model.h"

namespace coolopt::core::test_support {

inline std::vector<size_t> all_machines(const RoomModel& model) {
  std::vector<size_t> all(model.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

}  // namespace coolopt::core::test_support
