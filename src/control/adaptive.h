// Online adaptive control — an extension beyond the paper.
//
// The paper computes one steady-state operating point for a steady load.
// Real batch clusters drift: demand moves slowly over hours. This
// controller tracks a live room, re-planning with the holistic optimizer
// when drift warrants it, while respecting the operational realities the
// one-shot formulation ignores:
//
//   * power-state churn is expensive (boot time, disk wear), so ON/OFF
//     changes are rate-limited by a minimum dwell time;
//   * between full replans, load-only *rebalances* (same ON set, the
//     bounded solver) track smaller drift cheaply;
//   * if demand outgrows the ON set's capacity, availability beats the
//     dwell limit: an emergency replan powers machines up immediately.
//
// The controller never calls MachineRoom::settle(): it acts on the live
// (transient) room, exactly as a deployed daemon would.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "control/setpoint_planner.h"
#include "core/engine.h"
#include "core/scenario.h"
#include "sim/room.h"

namespace coolopt::control {

struct AdaptiveOptions {
  /// Policy used for full replans (default: the paper's holistic #8).
  core::Scenario scenario = core::Scenario::by_number(8);
  /// Demand drift (fraction of room capacity) that triggers re-optimization.
  /// Below it, demand is still served (cheap proportional load tracking);
  /// above it, the distribution is re-optimized.
  double replan_threshold = 0.04;
  /// ON sets are sized for demand * (1 + headroom) so ordinary upward drift
  /// is absorbed without powering machines up. Keep > replan_threshold.
  double capacity_headroom = 0.10;
  /// Minimum seconds between power-state changes (anti-flapping).
  double min_dwell_s = 900.0;
  /// Allow load-only rebalancing between full replans.
  bool allow_rebalance = true;
  /// Safety margin on T_max handed to the planner, degrees C.
  double t_max_margin = 1.0;
};

/// Counters describing what the controller has done so far.
struct AdaptiveStats {
  size_t full_replans = 0;       ///< ON-set (re)computations
  size_t emergency_replans = 0;  ///< dwell overridden: demand outgrew ON set
  size_t rebalances = 0;         ///< load-only bounded redistributions
  size_t load_tracks = 0;        ///< proportional in-band load adjustments
  size_t power_switches = 0;     ///< individual machine ON/OFF transitions
  size_t updates = 0;            ///< update() calls observed
};

class AdaptiveController {
 public:
  /// Builds a private PlanEngine with PlannerOptions{options.t_max_margin}.
  AdaptiveController(sim::MachineRoom& room, core::RoomModel model,
                     SetPointPlanner setpoints, AdaptiveOptions options = {});

  /// Shares an existing engine: full replans and rebalances reuse its
  /// cached solvers and consolidation select. The engine's own
  /// t_max_margin governs planning; options.t_max_margin is ignored.
  AdaptiveController(sim::MachineRoom& room,
                     std::shared_ptr<const core::PlanEngine> engine,
                     SetPointPlanner setpoints, AdaptiveOptions options = {});

  /// Informs the controller of the current offered load (files/s) and lets
  /// it act. Call once per control period, between room.step() calls.
  /// Throws std::invalid_argument on negative demand and std::runtime_error
  /// if the demand exceeds the room's total capacity. Demand above the
  /// *surviving* (non-quarantined) capacity is served best-effort and the
  /// remainder reported via shed_load().
  void update(double demand_files_s);

  /// Machines the planner must keep OFF (the resilience supervisor's
  /// quarantine set). Replaces the previous set; the next update() performs
  /// a full replan over the survivors, bypassing the dwell limit —
  /// quarantine is a safety action, not churn. Throws std::invalid_argument
  /// on out-of-range indices.
  void set_quarantined(std::vector<size_t> machines);
  const std::vector<size_t>& quarantined() const { return quarantined_; }
  /// Demand (files/s) the last update() could not serve (0 when healthy).
  double shed_load() const { return shed_load_; }

  const AdaptiveStats& stats() const { return stats_; }
  const core::PlanEngine& engine() const { return *engine_; }
  bool has_plan() const { return plan_.has_value(); }
  /// The most recent applied plan (valid when has_plan()).
  const core::Plan& current_plan() const { return *plan_; }
  /// Load the current plan was computed for.
  double planned_load() const { return plan_ ? plan_->load : 0.0; }

 private:
  void full_replan(double demand);
  bool try_rebalance(double demand);
  /// Serves `demand` on the current ON set by scaling loads proportionally
  /// (capacity-clamped water fill). Always succeeds when demand fits the ON
  /// capacity.
  void track_demand(double demand);
  void apply(const core::Allocation& alloc, bool allow_power_changes);
  double on_capacity() const;
  double surviving_capacity() const;
  std::vector<size_t> current_on_set() const;
  const core::RoomModel& model() const { return engine_->model(); }

  sim::MachineRoom& room_;
  std::shared_ptr<const core::PlanEngine> engine_;
  SetPointPlanner setpoints_;
  AdaptiveOptions options_;
  std::optional<core::Plan> plan_;
  double last_power_change_s_;
  double last_full_replan_load_ = 0.0;
  std::vector<size_t> quarantined_;
  bool force_replan_ = false;
  double shed_load_ = 0.0;
  /// Thermal ceiling discovered by the last degraded replan: serving more
  /// than this is unsafe until the next full replan relaxes it.
  double servable_limit_ = std::numeric_limits<double>::infinity();
  AdaptiveStats stats_;
};

}  // namespace coolopt::control
