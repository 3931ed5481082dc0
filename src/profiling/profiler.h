// End-to-end profiling campaign: runs the power, thermal and cooler
// profilers on a room and assembles the optimizer-ready RoomModel — the
// "two sets of experiments" of Section III-A plus cooler calibration.
#pragma once

#include <memory>

#include "core/model.h"
#include "profiling/cooler_profiler.h"
#include "profiling/power_profiler.h"
#include "profiling/thermal_profiler.h"
#include "sim/room.h"

namespace coolopt::profiling {

struct ProfilingOptions {
  PowerProfilerOptions power;
  ThermalProfilerOptions thermal;
  CoolerProfilerOptions cooler;

  /// Operating constraint: CPU temperature ceiling, degrees C. Chosen so
  /// the constraint actually binds at the testbed's operating points (as in
  /// the paper, where the optimum rides every ON CPU at T_max).
  double t_max = 48.0;
  /// CRAC actuation range fed into the model. The lower bound matches the
  /// unit's coldest supply. The upper bound is NOT the physical limit but
  /// the warmest air covered by the profiling campaign: the fitted linear
  /// models (especially Eq. 10's cooler model) must not be extrapolated
  /// beyond their validated envelope, or the optimizer chases fictitious
  /// savings (see EXPERIMENTS.md).
  double t_ac_min = 10.0;
  double t_ac_max = 28.0;

  /// Use per-machine power models in the assembled RoomModel instead of
  /// the paper's single fleet-wide fit. Required for heterogeneous fleets;
  /// routes the optimizer through the bounded solver (the closed form and
  /// the particle consolidation assume uniform w1/w2).
  bool heterogeneous_power = false;

  /// Preset with shorter dwells and fast steady-state jumps everywhere;
  /// used by tests and the evaluation benches (profiling fidelity is
  /// exercised separately by the Fig. 2/3 reproductions).
  static ProfilingOptions fast();
};

struct RoomProfile {
  core::RoomModel model;
  PowerProfileResult power;
  ThermalProfileResult thermal;
  CoolerProfileResult cooler;
};

/// Immutable profile shared between the evaluation layers (the campaign is
/// expensive; control::EvalEngine runs it once and hands this out).
using SharedRoomProfile = std::shared_ptr<const RoomProfile>;

/// Wraps a profile for sharing without further copies.
inline SharedRoomProfile share_profile(RoomProfile profile) {
  return std::make_shared<const RoomProfile>(std::move(profile));
}

/// Runs all three campaigns (in the order power -> thermal -> cooler) and
/// assembles the RoomModel. Capacities are taken from the pre-measured
/// per-machine capacity, as in the paper.
RoomProfile profile_room(sim::MachineRoom& room, const ProfilingOptions& options = {});

}  // namespace coolopt::profiling
