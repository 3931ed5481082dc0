#include "control/adaptive.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/scratch.h"
#include "obs/obs.h"
#include "util/log.h"
#include "util/strings.h"

namespace coolopt::control {

AdaptiveController::AdaptiveController(sim::MachineRoom& room,
                                       core::RoomModel model,
                                       SetPointPlanner setpoints,
                                       AdaptiveOptions options)
    : AdaptiveController(
          room,
          std::make_shared<const core::PlanEngine>(
              std::move(model), core::PlannerOptions{options.t_max_margin}),
          std::move(setpoints), options) {}

AdaptiveController::AdaptiveController(
    sim::MachineRoom& room, std::shared_ptr<const core::PlanEngine> engine,
    SetPointPlanner setpoints, AdaptiveOptions options)
    : room_(room),
      engine_(std::move(engine)),
      setpoints_(std::move(setpoints)),
      options_(options),
      // Allow the very first plan to switch machines immediately.
      last_power_change_s_(room.time_s() - options.min_dwell_s) {
  if (!engine_) {
    throw std::invalid_argument("AdaptiveController: null engine");
  }
  if (room_.size() != model().size()) {
    throw std::invalid_argument("AdaptiveController: room/model size mismatch");
  }
}

double AdaptiveController::on_capacity() const {
  if (!plan_) return 0.0;
  double cap = 0.0;
  for (size_t i = 0; i < model().size(); ++i) {
    if (plan_->allocation.on[i]) cap += model().machines[i].capacity;
  }
  return cap;
}

double AdaptiveController::surviving_capacity() const {
  double cap = model().total_capacity();
  for (const size_t i : quarantined_) cap -= model().machines[i].capacity;
  return cap;
}

void AdaptiveController::set_quarantined(std::vector<size_t> machines) {
  for (const size_t idx : machines) {
    if (idx >= model().size()) {
      throw std::invalid_argument(
          util::strf("AdaptiveController: quarantined index %zu out of range "
                     "(model has %zu machines)",
                     idx, model().size()));
    }
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()), machines.end());
  if (machines == quarantined_) return;
  quarantined_ = std::move(machines);
  // Safety action, not churn: the next update() replans over the survivors
  // immediately, regardless of the dwell limit.
  force_replan_ = true;
}

std::vector<size_t> AdaptiveController::current_on_set() const {
  std::vector<size_t> on_set;
  if (!plan_) return on_set;
  for (size_t i = 0; i < model().size(); ++i) {
    if (plan_->allocation.on[i]) on_set.push_back(i);
  }
  return on_set;
}

void AdaptiveController::apply(const core::Allocation& alloc,
                               bool allow_power_changes) {
  bool switched = false;
  for (size_t i = 0; i < room_.size(); ++i) {
    if (room_.server(i).is_on() != alloc.on[i]) {
      if (!allow_power_changes) {
        throw std::logic_error(
            "AdaptiveController: rebalance attempted a power-state change");
      }
      room_.set_power_state(i, alloc.on[i]);
      ++stats_.power_switches;
      obs::count("control.adaptive.power_switches");
      if (obs::RunTrace* tr = obs::trace()) {
        tr->record_event(obs::EventSample{
            room_.time_s(), alloc.on[i] ? "adaptive.power_on" : "adaptive.power_off",
            static_cast<double>(i), ""});
      }
      switched = true;
    }
    if (alloc.on[i]) room_.set_load_files_s(i, alloc.loads[i]);
  }
  if (switched) last_power_change_s_ = room_.time_s();
  room_.set_setpoint_c(setpoints_.to_setpoint(alloc.t_ac, alloc.it_power_w));
}

void AdaptiveController::full_replan(double demand) {
  // Size the ON set with headroom so ordinary upward drift lands inside it
  // (capped at the surviving capacity), then serve what we can of the
  // actual demand on the chosen machines.
  const double sizing = std::min(surviving_capacity(),
                                 demand * (1.0 + options_.capacity_headroom));
  core::PlanRequest request{options_.scenario, sizing, quarantined_};
  const core::PlanResult result = engine_->solve(request);
  if (!result.plan) {
    throw std::runtime_error(
        "AdaptiveController: no feasible operating point for the demand");
  }
  apply(result.plan->allocation, /*allow_power_changes=*/true);
  plan_ = *result.plan;
  force_replan_ = false;

  // A degraded result is planned at the thermally servable level; pushing
  // the ON set back up to capacity would violate the ceiling, so that level
  // becomes the serving limit until the next replan. Otherwise the ON set's
  // capacity is the only limit.
  servable_limit_ = result.shed_load > 0.0
                        ? result.plan->load
                        : std::numeric_limits<double>::infinity();
  const double target = std::min({demand, on_capacity(), servable_limit_});
  shed_load_ = demand - target > 1e-9 ? demand - target : 0.0;
  plan_->load = target;
  last_full_replan_load_ = target;
  ++stats_.full_replans;
  obs::count("control.adaptive.full_replans");
  if (obs::RunTrace* tr = obs::trace()) {
    tr->record_event(
        obs::EventSample{room_.time_s(), "adaptive.full_replan", demand, ""});
  }
  if (std::abs(result.plan->allocation.total_load() - target) > 1e-9) {
    track_demand(target);
  }
}

bool AdaptiveController::try_rebalance(double demand) {
  if (!options_.allow_rebalance || !plan_) return false;
  if (demand > on_capacity() + 1e-9) return false;
  const std::vector<size_t> on_set = current_on_set();
  if (on_set.empty()) return false;
  core::Allocation alloc;
  if (!engine_->rebalance_into(on_set, demand, core::SolveScratch::local(),
                               alloc)) {
    return false;
  }
  apply(alloc, /*allow_power_changes=*/false);
  plan_->allocation = std::move(alloc);
  plan_->load = demand;
  ++stats_.rebalances;
  obs::count("control.adaptive.rebalances");
  if (obs::RunTrace* tr = obs::trace()) {
    tr->record_event(
        obs::EventSample{room_.time_s(), "adaptive.rebalance", demand, ""});
  }
  return true;
}

void AdaptiveController::track_demand(double demand) {
  const std::vector<size_t> on_set = current_on_set();
  const double current = plan_->allocation.total_load();

  // Proportional scale with capacity-clamped spill (water fill).
  std::vector<double> loads(model().size(), 0.0);
  double remaining = demand;
  std::vector<size_t> free = on_set;
  while (remaining > 1e-12 && !free.empty()) {
    double weight_sum = 0.0;
    for (const size_t i : free) {
      weight_sum += current > 1e-12 ? plan_->allocation.loads[i]
                                    : model().machines[i].capacity;
    }
    if (weight_sum <= 1e-12) break;
    bool pinned = false;
    std::vector<size_t> still_free;
    const double budget = remaining;
    for (const size_t i : free) {
      const double w = current > 1e-12 ? plan_->allocation.loads[i]
                                       : model().machines[i].capacity;
      const double want = loads[i] + budget * w / weight_sum;
      if (want >= model().machines[i].capacity - 1e-12) {
        remaining -= model().machines[i].capacity - loads[i];
        loads[i] = model().machines[i].capacity;
        pinned = true;
      } else {
        still_free.push_back(i);
      }
    }
    if (!pinned) {
      for (const size_t i : still_free) {
        const double w = current > 1e-12 ? plan_->allocation.loads[i]
                                         : model().machines[i].capacity;
        loads[i] += budget * w / weight_sum;
      }
      remaining = 0.0;
    }
    free = std::move(still_free);
  }
  if (remaining > 1e-6) {
    throw std::logic_error(
        "AdaptiveController::track_demand: demand exceeds ON capacity "
        "(caller must replan first)");
  }

  for (const size_t i : on_set) room_.set_load_files_s(i, loads[i]);
  plan_->allocation.loads = loads;
  plan_->allocation.finalize(model());
  ++stats_.load_tracks;
  obs::count("control.adaptive.load_tracks");
  // Note: plan_->load is deliberately NOT retargeted here; drift for the
  // rebalance/replan decisions keeps accumulating against the last
  // optimized point.
}

void AdaptiveController::update(double demand_files_s) {
  if (demand_files_s < 0.0) {
    throw std::invalid_argument("AdaptiveController: negative demand");
  }
  if (demand_files_s > model().total_capacity() + 1e-9) {
    throw std::runtime_error(
        "AdaptiveController: demand exceeds the room's total capacity");
  }
  ++stats_.updates;

  if (!plan_ || force_replan_) {
    full_replan(demand_files_s);
    return;
  }

  // The servable level: demand capped by what the surviving fleet can take
  // (quarantines) and by the last degraded replan's thermal ceiling. Using
  // it (not the raw demand) in the decisions below keeps a persistently
  // over-demanded degraded room from emergency-replanning every cycle.
  const double target =
      std::min({demand_files_s, surviving_capacity(), servable_limit_});
  shed_load_ = demand_files_s - target > 1e-9 ? demand_files_s - target : 0.0;

  const double capacity = model().total_capacity();
  const double drift_structural =
      std::abs(target - last_full_replan_load_) / capacity;
  const double drift_local = std::abs(target - plan_->load) / capacity;

  const bool dwell_ok =
      room_.time_s() - last_power_change_s_ >= options_.min_dwell_s;
  const bool over_capacity = target > on_capacity() + 1e-9;

  if (over_capacity) {
    // Availability beats anti-flapping: bring machines up now.
    if (!dwell_ok) {
      util::log_debug("AdaptiveController: emergency replan at t=%.0f "
                      "(demand %.1f > ON capacity %.1f)",
                      room_.time_s(), target, on_capacity());
      ++stats_.emergency_replans;
      obs::count("control.adaptive.emergency_replans");
    }
    full_replan(demand_files_s);
    return;
  }
  if (drift_structural > options_.replan_threshold && dwell_ok) {
    full_replan(demand_files_s);
    return;
  }
  if (drift_local > options_.replan_threshold && try_rebalance(target)) {
    return;
  }
  // In-band drift (or rebalance unavailable before the dwell expires):
  // still serve the demand by scaling loads on the current ON set.
  if (std::abs(target - plan_->allocation.total_load()) > 1e-9) {
    track_demand(target);
  }
}

}  // namespace coolopt::control
