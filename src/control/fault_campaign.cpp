#include "control/fault_campaign.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "control/setpoint_planner.h"
#include "profiling/profiler.h"
#include "sim/room.h"

namespace coolopt::control {

const char* to_string(DefenseArm arm) {
  switch (arm) {
    case DefenseArm::kNone: return "none";
    case DefenseArm::kWatchdog: return "watchdog";
    case DefenseArm::kSupervisor: return "supervisor";
  }
  return "unknown";
}

DefenseArm parse_defense(const std::string& name) {
  if (name == "none") return DefenseArm::kNone;
  if (name == "watchdog") return DefenseArm::kWatchdog;
  if (name == "supervisor") return DefenseArm::kSupervisor;
  throw std::invalid_argument(
      "parse_defense: unknown defense '" + name +
      "' (expected none, watchdog, or supervisor)");
}

FaultCampaignResult run_fault_campaign(const FaultCampaignOptions& options) {
  if (options.duration_s <= 0.0 || options.dt_s <= 0.0 ||
      options.control_period_s <= 0.0) {
    throw std::invalid_argument(
        "run_fault_campaign: duration, dt, and control period must be > 0");
  }
  // Checked before the profiling pass, which would otherwise run in full
  // before the controller rejects the demand.
  if (!(options.demand_fraction >= 0.0 && options.demand_fraction <= 1.0)) {
    throw std::invalid_argument(
        "run_fault_campaign: demand fraction must be in [0, 1]");
  }

  // Profile a pristine replica; the campaign room is built fresh from the
  // same config so its sensor streams start from the configured seed, not
  // wherever the profiling campaign left them.
  profiling::RoomProfile profile = [&] {
    sim::MachineRoom proto(options.room);
    return profiling::profile_room(proto, profiling::ProfilingOptions::fast());
  }();
  const double demand =
      options.demand_fraction * profile.model.total_capacity();

  sim::MachineRoom room(options.room);
  sim::FaultScheduler scheduler(room, options.scenario);
  SetPointPlanner setpoints = SetPointPlanner::from_profile(profile.cooler);
  const double t_max = profile.model.t_max;

  // The three arms share the adaptive layer; they differ only in what is
  // stacked on top of it.
  std::optional<AdaptiveController> adaptive;
  std::optional<ThermalWatchdog> watchdog;
  std::optional<ResilientController> supervisor;
  if (options.defense == DefenseArm::kSupervisor) {
    supervisor.emplace(room, profile.model, setpoints, options.resilient);
  } else {
    adaptive.emplace(room, profile.model, setpoints,
                     options.resilient.adaptive);
    if (options.defense == DefenseArm::kWatchdog) {
      watchdog.emplace(room, t_max, options.resilient.watchdog);
    }
  }

  FaultCampaignResult result;
  result.scenario = options.scenario.name;
  result.defense = options.defense;
  result.demand_files_s = demand;
  result.t_max_c = t_max;

  room.reset_energy();
  double next_control_s = room.time_s();  // first update before any step
  const double end_s = room.time_s() + options.duration_s;
  while (room.time_s() < end_s - 1e-9) {
    scheduler.advance_to(room.time_s());
    if (room.time_s() >= next_control_s - 1e-9) {
      if (supervisor) {
        supervisor->update(demand);
      } else {
        adaptive->update(demand);
        if (watchdog) watchdog->check();
      }
      next_control_s += options.control_period_s;
    }
    const double h = std::min(options.dt_s, end_s - room.time_s());
    room.step(h);

    // Identical ground-truth accounting for every arm, at dt resolution.
    double peak = room.ambient_temp_c();
    for (size_t i = 0; i < room.size(); ++i) {
      if (room.server(i).is_on()) {
        peak = std::max(peak, room.true_cpu_temp_c(i));
      }
    }
    result.peak_cpu_c = std::max(result.peak_cpu_c, peak);
    if (peak > t_max) result.violation_s += h;
  }

  result.energy_j = room.total_energy_j();
  result.final_total_power_w = room.total_power_w();
  result.final_throughput_files_s = room.throughput_files_s();
  result.fault_events = scheduler.applied_count();
  if (supervisor) {
    result.shed_files = supervisor->stats().shed_files;
    result.quarantines = supervisor->stats().quarantines;
    result.readmissions = supervisor->stats().readmissions;
    result.emergency_overrides = supervisor->stats().emergency_overrides;
    result.watchdog_interventions = supervisor->watchdog().stats().interventions;
  } else {
    if (watchdog) {
      result.watchdog_interventions = watchdog->stats().interventions;
    }
  }
  return result;
}

}  // namespace coolopt::control
