// Reproduces Fig. 5: comparison of matched methods with and without
// consolidation (Bottom-up: #2 vs #3 and #5 vs #7; Optimal: #6 vs #8).
//
// Paper shape: "the addition of consolidation substantially increases total
// energy savings"; the consolidated variant of each method draws strictly
// less power below full load and converges to its unconsolidated twin at
// 100%.

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 5 reproduction: matched methods with vs without consolidation\n\n");

  control::EvalEngine eval(benchsup::standard_options());
  const std::vector<core::Scenario> scenarios = {
      core::Scenario::by_number(2), core::Scenario::by_number(3),
      core::Scenario::by_number(5), core::Scenario::by_number(7),
      core::Scenario::by_number(6), core::Scenario::by_number(8),
  };
  const auto table =
      benchsup::run_sweep(eval, scenarios, control::paper_load_axis());

  benchsup::print_power_table(table, "Measured total power (W):");
  benchsup::maybe_export_csv(table, "fig5_consolidation_effect");

  std::printf("Consolidation saving per pair (%% of the unconsolidated twin):\n");
  util::TextTable savings({"load %", "#2 vs #3", "#5 vs #7", "#6 vs #8"});
  bool pass = true;
  for (const double pct : table.loads) {
    const double s23 = benchsup::saving_pct(
        table.at(2, pct).measurement.total_power_w,
        table.at(3, pct).measurement.total_power_w);
    const double s57 = benchsup::saving_pct(
        table.at(5, pct).measurement.total_power_w,
        table.at(7, pct).measurement.total_power_w);
    const double s68 = benchsup::saving_pct(
        table.at(6, pct).measurement.total_power_w,
        table.at(8, pct).measurement.total_power_w);
    savings.labeled_row(util::strf("%.0f", pct), {s23, s57, s68}, "%.1f");
    if (pct <= 50.0 && (s23 < 5.0 || s57 < 5.0 || s68 < 5.0)) pass = false;
    if (pct >= 100.0 && (s23 < -0.5 || s57 < -0.5 || s68 < -0.5)) pass = false;
  }
  std::printf("%s", savings.render().c_str());

  std::printf("\nShape check (substantial savings at low load, convergence at "
              "100%%): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
