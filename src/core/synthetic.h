// Synthetic RoomModel generation: realistic random instances of the
// optimization problem without running a simulator or profiler. Used by
// the property tests (closed form vs the LP oracle, event consolidator vs
// brute force), the algorithm-performance benches, and handy for library
// users who want to explore the optimizer stand-alone.
#pragma once

#include <cstdint>
#include <cstddef>

#include "core/model.h"

namespace coolopt::core {

struct SyntheticModelOptions {
  size_t machines = 20;
  uint64_t seed = 1;

  // Fleet-wide power model (uniform, as the paper assumes).
  double w1 = 1.5;
  double w2 = 36.0;

  // Per-machine draws, uniform in [lo, hi].
  double alpha_lo = 0.9, alpha_hi = 1.05;
  double beta_lo = 0.16, beta_hi = 0.30;
  double gamma_lo = 0.0, gamma_hi = 2.5;
  double capacity_lo = 38.0, capacity_hi = 42.0;

  // Constraints / cooler.
  double t_max = 48.0;
  double t_ac_min = 10.0;
  double t_ac_max = 28.0;
  double cfac = 45.0;
  double t_sp_ref = 29.0;
  double fan_offset_w = 140.0;
  double q_coeff = 0.15;
};

/// Deterministic in (options.seed, options.machines).
RoomModel make_synthetic_model(const SyntheticModelOptions& options = {});

}  // namespace coolopt::core
