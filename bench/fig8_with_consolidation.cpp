// Reproduces Fig. 8: load-distribution strategies under AC control WITH
// consolidation (#7 Bottom-up, #8 Optimal, plus the even-split-with-
// consolidation variant the figure's legend shows).
//
// Paper shape: "with optimal load allocation, 5% saving in total energy
// consumption is possible. ... The energy savings under the optimal load
// allocation were relatively consistent for different loads."

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 8 reproduction: Even vs Bottom-up vs Optimal "
              "(AC control + consolidation)\n\n");

  control::EvalEngine eval(benchsup::standard_options());
  // The unnumbered Even+AC+consolidation combination from the figure legend.
  const core::Scenario even_consol{0, core::Distribution::kEven, true, true};
  const std::vector<core::Scenario> scenarios = {
      even_consol, core::Scenario::by_number(7), core::Scenario::by_number(8)};
  const auto table =
      benchsup::run_sweep(eval, scenarios, control::paper_load_axis());

  benchsup::print_power_table(table, "Measured total power (W):");
  benchsup::maybe_export_csv(table, "fig8_with_consolidation");

  util::TextTable savings({"load %", "#8 vs Even+consol (%)", "#8 vs #7 (%)"});
  bool pass = true;
  double peak_saving = 0.0;
  for (const double pct : table.loads) {
    const double pe = table.at(0, pct).measurement.total_power_w;
    const double p7 = table.at(7, pct).measurement.total_power_w;
    const double p8 = table.at(8, pct).measurement.total_power_w;
    const double s7 = benchsup::saving_pct(p7, p8);
    savings.labeled_row(util::strf("%.0f", pct),
                        {benchsup::saving_pct(pe, p8), s7}, "%.1f");
    peak_saving = std::max(peak_saving, s7);
    if (p8 > p7 * 1.005 || p8 > pe * 1.005) pass = false;
  }
  std::printf("%s", savings.render().c_str());

  // Paper: ~5% total-energy saving possible under consolidation.
  pass = pass && peak_saving >= 5.0;
  std::printf("\nShape check (Optimal <= both baselines at every load; peak "
              "saving vs #7 >= 5%%): %s (peak %.1f%%)\n",
              pass ? "PASS" : "FAIL", peak_saving);
  return pass ? 0 : 1;
}
