// Reproduces Fig. 7: load-distribution strategies under AC control WITHOUT
// consolidation (#4 Even, #5 Bottom-up, #6 Optimal).
//
// Paper shape: "the optimal load distribution computed by our heuristic
// saves the most energy compared to the other two baselines" — #6 draws the
// least power at every load; all three converge at 100%.

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 7 reproduction: Even vs Bottom-up vs Optimal "
              "(AC control, no consolidation)\n\n");

  control::EvalEngine eval(benchsup::standard_options());
  const std::vector<core::Scenario> scenarios = {
      core::Scenario::by_number(4), core::Scenario::by_number(5),
      core::Scenario::by_number(6)};
  const auto table =
      benchsup::run_sweep(eval, scenarios, control::paper_load_axis());

  benchsup::print_power_table(table, "Measured total power (W):");
  benchsup::maybe_export_csv(table, "fig7_no_consolidation");

  util::TextTable savings({"load %", "#6 vs #4 (%)", "#6 vs #5 (%)"});
  bool pass = true;
  for (const double pct : table.loads) {
    const double p4 = table.at(4, pct).measurement.total_power_w;
    const double p5 = table.at(5, pct).measurement.total_power_w;
    const double p6 = table.at(6, pct).measurement.total_power_w;
    savings.labeled_row(util::strf("%.0f", pct),
                        {benchsup::saving_pct(p4, p6), benchsup::saving_pct(p5, p6)},
                        "%.1f");
    // Optimal never loses to either baseline. Tolerance 1%: at very light
    // load the CRAC coil is off for every strategy and the true (mildly
    // concave) P(u) curve makes concentrating load a few watts cheaper than
    // the linear model can know — see EXPERIMENTS.md.
    if (p6 > p4 * 1.01 || p6 > p5 * 1.01) pass = false;
  }
  std::printf("%s", savings.render().c_str());

  std::printf("\nShape check (Optimal <= Even and <= Bottom-up at every load, "
              "1%% tolerance): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
