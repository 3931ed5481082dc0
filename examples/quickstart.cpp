// Quickstart: the whole coolopt pipeline on one page.
//
//   1. Build a simulated 20-machine room (the paper's testbed stand-in).
//   2. Profile it: fit the power, thermal and cooler models from
//      measurements (Section IV-A).
//   3. Ask the holistic optimizer (scenario #8: optimal distribution +
//      AC control + consolidation) for an operating point at 50% load.
//   4. Actuate it, measure ground truth, and compare against the
//      standard-practice baseline (#1: even split, no AC control).
//
// Run: ./quickstart [--load-pct 50] [--servers 20] [--seed 42]

#include <cstdio>

#include "control/eval_engine.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.define("load-pct", "total load as a percent of room capacity", "50");
  flags.define("servers", "number of machines in the rack", "20");
  flags.define("seed", "simulation seed", "42");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("coolopt quickstart").c_str());
    return 0;
  }
  const double load_pct = flags.get_double("load-pct", 50.0);

  control::EvalOptions options;
  options.room.num_servers = static_cast<size_t>(flags.get_int("servers", 20));
  options.room.seed = static_cast<uint64_t>(flags.get_int("seed", 42));

  std::printf("Profiling a %zu-machine room...\n\n", options.room.num_servers);
  control::EvalEngine eval(options);

  const auto& profile = eval.profile();
  std::printf("Fitted power model (Eq. 9):   P = %.3f * L + %.2f   (R^2 = %.4f)\n",
              profile.power.model.w1, profile.power.model.w2,
              profile.power.r_squared);
  std::printf("Fitted cooler model (Eq. 10): P_ac = %.1f * (T_SP - T_ac) + %.1f\n",
              profile.cooler.model.cfac, profile.cooler.model.fan_offset_w);
  std::printf("Thermal models (Eq. 8), a sample of machines:\n");
  util::TextTable thermal({"machine", "alpha", "beta", "gamma", "R^2"});
  for (size_t i = 0; i < eval.model().size(); i += 5) {
    thermal.row({util::strf("%zu", i),
                 util::strf("%.3f", profile.thermal.fits[i].coeffs.alpha),
                 util::strf("%.4f", profile.thermal.fits[i].coeffs.beta),
                 util::strf("%.2f", profile.thermal.fits[i].coeffs.gamma),
                 util::strf("%.4f", profile.thermal.fits[i].r_squared)});
  }
  std::printf("%s\n", thermal.render().c_str());

  const core::Scenario holistic = core::Scenario::by_number(8);
  const core::Scenario baseline = core::Scenario::by_number(1);

  auto opt = eval.measure(holistic, load_pct);
  auto base = eval.measure(baseline, load_pct);
  if (!opt.feasible || !base.feasible) {
    std::fprintf(stderr, "no feasible operating point at %.0f%% load\n", load_pct);
    return 1;
  }

  std::printf("At %.0f%% load (%.0f files/s over %.0f files/s capacity):\n\n",
              load_pct, eval.capacity_files_s() * load_pct / 100.0,
              eval.capacity_files_s());
  util::TextTable table({"", "machines ON", "T_ac (C)", "IT power (W)",
                         "cooling (W)", "total (W)", "peak CPU (C)"});
  auto add = [&](const char* name, const control::EvalPoint& p) {
    table.row({name, util::strf("%zu", p.measurement.machines_on),
               util::strf("%.1f", p.measurement.t_ac_achieved_c),
               util::strf("%.0f", p.measurement.it_power_w),
               util::strf("%.0f", p.measurement.crac_power_w),
               util::strf("%.0f", p.measurement.total_power_w),
               util::strf("%.1f", p.measurement.peak_cpu_temp_c)});
  };
  add("#1 Even (standard practice)", base);
  add("#8 Optimal (holistic)", opt);
  std::printf("%s\n", table.render().c_str());

  const double saving = 100.0 * (base.measurement.total_power_w -
                                 opt.measurement.total_power_w) /
                        base.measurement.total_power_w;
  std::printf("Holistic optimization saves %.1f%% total power at this load.\n",
              saving);
  std::printf("Temperature ceiling (T_max = %.0f C) violated: %s\n",
              eval.model().t_max,
              opt.measurement.temp_violation ? "YES (bug!)" : "no");
  return 0;
}
