// Reproduces Fig. 9: measured total power of all eight evaluation
// scenarios (Fig. 4) as total load sweeps 10..100% of room capacity.
//
// Paper shape: the holistic method (#8) draws the least power at every
// load; consolidating methods (#3, #7, #8) dominate at low load; all
// methods converge as load approaches 100%.

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 9 reproduction: total power of all 8 methods vs load\n");
  std::printf("Scenario key (Fig. 4): distribution / AC control / consolidation\n");
  for (const core::Scenario& s : core::Scenario::all8()) {
    std::printf("  %s\n", s.name().c_str());
  }
  std::printf("\n");

  control::EvalEngine eval(benchsup::standard_options());
  const auto table = benchsup::run_sweep(eval, core::Scenario::all8(),
                                         control::paper_load_axis());

  benchsup::print_power_table(table, "Measured total power (W):");
  benchsup::maybe_export_csv(table, "fig9_all_methods");

  // Constraint bookkeeping the paper reports in prose: no CPU exceeded
  // T_max and throughput matched the offered load.
  size_t violations = 0;
  double worst_violation_c = 0.0;
  for (const auto& [key, p] : table.points) {
    if (p.feasible && p.measurement.temp_violation) {
      ++violations;
      worst_violation_c =
          std::max(worst_violation_c,
                   p.measurement.peak_cpu_temp_c - eval.model().t_max);
    }
  }
  std::printf("Temperature-ceiling violations across all %zu operating points: %zu",
              table.points.size(), violations);
  if (violations > 0) std::printf(" (worst +%.2f C)", worst_violation_c);
  std::printf("\n");

  // Headline comparison: #8 vs the best prior heuristic #7.
  double avg7 = benchsup::average_power(table, 7);
  double avg8 = benchsup::average_power(table, 8);
  std::printf("Average power: #7 (cool job allocation) %.0f W, #8 (holistic) %.0f W "
              "-> %.1f%% average saving (paper: ~7%%)\n",
              avg7, avg8, benchsup::saving_pct(avg7, avg8));
  return 0;
}
