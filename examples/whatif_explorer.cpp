// Operator tool: explore what the room would do under any scenario/load
// combination — which machines power on, how load is split, what set point
// is chosen, and what it all costs — without touching the (simulated)
// hardware until you ask for a measurement.
//
// Run: ./whatif_explorer [--scenario 8] [--load-pct 45] [--servers 20]
//                        [--t-max 48] [--measure]

#include <cstdio>

#include "control/eval_engine.h"
#include "core/engine.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.define("scenario", "Fig. 4 scenario number (1-8)", "8");
  flags.define("load-pct", "total load, percent of capacity", "45");
  flags.define("servers", "machines in the rack", "20");
  flags.define("seed", "simulation seed", "42");
  flags.define("t-max", "CPU temperature ceiling, C", "48");
  flags.define("measure", "also actuate on the simulator and measure", "false");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("coolopt what-if explorer").c_str());
    return 0;
  }

  control::EvalOptions options;
  options.room.num_servers = static_cast<size_t>(flags.get_int("servers", 20));
  options.room.seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  options.profiling.t_max = flags.get_double("t-max", 48.0);
  control::EvalEngine engine(options);

  const core::Scenario scenario =
      core::Scenario::by_number(flags.get_int("scenario", 8));
  const double load_pct = flags.get_double("load-pct", 45.0);
  const double load = engine.capacity_files_s() * load_pct / 100.0;

  std::printf("Scenario %s at %.0f%% load (%.1f files/s)\n\n",
              scenario.name().c_str(), load_pct, load);

  // The eval engine shares one PlanEngine with every other consumer of this
  // room, so every what-if below reuses the cached model aggregates.
  const core::PlanResult result =
      engine.plan_engine()->solve(core::PlanRequest{scenario, load});
  const auto& plan = result.plan;
  if (!plan) {
    std::printf("No feasible operating point: the load cannot be served under "
                "T_max = %.1f C within the CRAC's range.\n",
                engine.model().t_max);
    return 1;
  }

  const core::RoomModel& model = engine.model();
  util::TextTable table({"machine", "state", "load (files/s)", "util %",
                         "predicted power (W)", "predicted CPU (C)"});
  for (size_t i = 0; i < model.size(); ++i) {
    const bool on = plan->allocation.on[i];
    const double l = plan->allocation.loads[i];
    table.row({util::strf("%zu", i), on ? "ON" : "off",
               on ? util::strf("%.1f", l) : std::string("-"),
               on ? util::strf("%.0f", 100.0 * l / model.machines[i].capacity)
                  : std::string("-"),
               on ? util::strf("%.1f", model.machines[i].power.predict(l))
                  : std::string("-"),
               on ? util::strf("%.1f",
                               core::predicted_cpu_temp(model, plan->allocation, i))
                  : std::string("-")});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Cool-air target T_ac: %.2f C   (constraint T_max = %.1f C)\n",
              plan->allocation.t_ac, model.t_max);
  std::printf("Predicted IT power: %.0f W, cooling: %.0f W, total: %.0f W\n",
              plan->allocation.it_power_w, plan->allocation.cooling_power_w,
              plan->allocation.total_power_w);
  if (scenario.distribution == core::Distribution::kOptimal) {
    std::printf("Solver path: %s (%.0f us)\n",
                plan->closed_form_pure ? "pure closed form (Eqs. 21-22)"
                                       : "bounded fallback engaged",
                result.solve_us);
  }

  if (flags.get_bool("measure", false)) {
    const auto point = engine.measure(scenario, load_pct);
    std::printf("\nMeasured on the simulator: total %.0f W (IT %.0f + cooling "
                "%.0f), T_ac achieved %.2f C, peak CPU %.1f C%s\n",
                point.measurement.total_power_w, point.measurement.it_power_w,
                point.measurement.crac_power_w,
                point.measurement.t_ac_achieved_c,
                point.measurement.peak_cpu_temp_c,
                point.measurement.temp_violation ? "  ** T_MAX VIOLATED **" : "");
  }
  return 0;
}
