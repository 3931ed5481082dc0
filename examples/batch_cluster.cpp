// Scenario example: a cloud batch-processing cluster over a simulated day.
//
// The paper motivates its steady-state analysis with "long computationally-
// intensive tasks (such as batch processing of click-streams) ... the total
// load is steady, and load distribution across machines can be decided by a
// central load balancer." Here the offered load follows a slow diurnal
// profile; once an hour the balancer re-plans with the holistic optimizer
// (scenario #8), actuates, and a live job stream runs against the room.
// The same day is replayed under the standard practice baseline (#1) for
// the energy bill comparison.
//
// Run: ./batch_cluster [--servers 20] [--seed 42] [--hours 24]

#include <cstdio>
#include <vector>

#include "control/eval_engine.h"
#include "core/engine.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

namespace {

/// Diurnal load profile: quiet night, morning ramp, afternoon peak.
double load_fraction_at_hour(int hour) {
  static const double profile[24] = {
      0.18, 0.15, 0.12, 0.12, 0.14, 0.20, 0.30, 0.45,  // 00-07
      0.60, 0.72, 0.80, 0.85, 0.88, 0.90, 0.88, 0.85,  // 08-15
      0.80, 0.72, 0.62, 0.52, 0.42, 0.34, 0.28, 0.22,  // 16-23
  };
  return profile[hour % 24];
}

struct DayResult {
  double energy_kwh = 0.0;
  double served_files = 0.0;
  double offered_files = 0.0;
  double peak_cpu_c = 0.0;
  size_t infeasible_hours = 0;
};

DayResult run_day(control::EvalEngine& engine, const core::Scenario& scenario,
                  int hours, uint64_t seed, util::TextTable* table) {
  sim::MachineRoom& room = engine.room();
  DayResult result;
  sim::WorkloadDriver driver(room, 0.0, util::Rng(seed).fork("jobs"));

  for (int hour = 0; hour < hours; ++hour) {
    const double frac = load_fraction_at_hour(hour);
    const double demand = engine.capacity_files_s() * frac;
    const auto point = engine.measure(scenario, frac * 100.0);
    if (!point.feasible) {
      ++result.infeasible_hours;
      continue;
    }
    // A memoized measure does not touch the hardware, so replay the plan's
    // power states onto the room before attaching the job stream; the hour
    // then runs with fast steady-state energy accounting (power is constant
    // within the hour once settled).
    for (size_t i = 0; i < room.size(); ++i) {
      room.set_power_state(i, point.plan.allocation.on[i]);
      if (point.plan.allocation.on[i]) {
        room.set_load_files_s(i, point.plan.allocation.loads[i]);
      }
    }
    driver.set_demand_files_s(demand);
    driver.apply_allocation(point.plan.allocation.loads);
    driver.reset_stats();
    for (int s = 0; s < 3600; s += 10) driver.step(10.0);

    const double hour_kwh = point.measurement.total_power_w * 3600.0 / 3.6e6;
    result.energy_kwh += hour_kwh;
    result.served_files += driver.stats().completed;
    result.offered_files += demand * 3600.0;
    result.peak_cpu_c = std::max(result.peak_cpu_c, point.measurement.peak_cpu_temp_c);
    if (table != nullptr) {
      table->row({util::strf("%02d:00", hour), util::strf("%.0f%%", frac * 100.0),
                  util::strf("%zu", point.measurement.machines_on),
                  util::strf("%.1f", point.measurement.t_ac_achieved_c),
                  util::strf("%.0f", point.measurement.total_power_w),
                  util::strf("%.2f", hour_kwh)});
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.define("servers", "machines in the rack", "20");
  flags.define("seed", "simulation seed", "42");
  flags.define("hours", "hours of the day to simulate", "24");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("coolopt batch-cluster day simulation").c_str());
    return 0;
  }
  const int hours = flags.get_int("hours", 24);

  control::EvalOptions options;
  options.room.num_servers = static_cast<size_t>(flags.get_int("servers", 20));
  options.room.seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  std::printf("Profiling the %zu-machine cluster...\n\n", options.room.num_servers);
  control::EvalEngine engine(options);

  // Pre-plan the whole day in one batch before touching the room: the
  // plan engine fans the hourly requests across its worker pool and returns
  // results in request order, identical to solving them one by one.
  std::vector<core::PlanRequest> day;
  day.reserve(static_cast<size_t>(hours));
  for (int hour = 0; hour < hours; ++hour) {
    day.push_back(core::PlanRequest{
        core::Scenario::by_number(8),
        engine.capacity_files_s() * load_fraction_at_hour(hour)});
  }
  std::vector<core::PlanResult> preview;
  engine.plan_engine()->solve_batch_into(day, preview);
  size_t feasible_hours = 0;
  double planned_kwh = 0.0;
  for (const core::PlanResult& r : preview) {
    if (!r.feasible()) continue;
    ++feasible_hours;
    planned_kwh += r.plan->allocation.total_power_w * 3600.0 / 3.6e6;
  }
  std::printf("Batch pre-plan (#8): %zu/%d hours feasible, predicted steady "
              "draw %.1f kWh for the day.\n\n",
              feasible_hours, hours, planned_kwh);

  util::TextTable schedule(
      {"hour", "load", "machines ON", "T_ac (C)", "power (W)", "energy (kWh)"});
  const DayResult holistic = run_day(engine, core::Scenario::by_number(8),
                                     hours, options.room.seed, &schedule);
  std::printf("Holistic controller (#8), hour by hour:\n%s\n",
              schedule.render().c_str());

  const DayResult baseline = run_day(engine, core::Scenario::by_number(1),
                                     hours, options.room.seed, nullptr);

  std::printf("Day summary (%d hours):\n", hours);
  util::TextTable summary({"", "energy (kWh)", "served / offered", "peak CPU (C)"});
  auto add = [&](const char* name, const DayResult& r) {
    summary.row({name, util::strf("%.1f", r.energy_kwh),
                 util::strf("%.3f", r.offered_files > 0
                                        ? r.served_files / r.offered_files
                                        : 0.0),
                 util::strf("%.1f", r.peak_cpu_c)});
  };
  add("#1 Even (standard practice)", baseline);
  add("#8 Optimal (holistic)", holistic);
  std::printf("%s\n", summary.render().c_str());
  std::printf("Energy saved by the holistic controller: %.1f kWh (%.1f%%)\n",
              baseline.energy_kwh - holistic.energy_kwh,
              100.0 * (baseline.energy_kwh - holistic.energy_kwh) /
                  baseline.energy_kwh);
  return 0;
}
