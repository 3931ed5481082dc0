// Reproduces Fig. 10: average measured power of every method over the load
// sweep, plus the paper's headline numbers — the holistic method (#8) saves
// on average vs the best prior heuristic (#7, cool job allocation), with a
// distinctly larger best case.
//
// Paper: "our solution saves 7% of the total energy consumption on average
// over all load scenarios and is able to save up to 18% in the best case
// compared to the next best baseline, method #7."

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 10 reproduction: average power of all methods\n\n");

  control::EvalEngine eval(benchsup::standard_options());
  const auto table = benchsup::run_sweep(eval, core::Scenario::all8(),
                                         control::paper_load_axis());

  util::TextTable out({"method", "average power (W)", "vs #8 (%)"});
  const double avg8 = benchsup::average_power(table, 8);
  for (const core::Scenario& s : table.scenarios) {
    const double avg = benchsup::average_power(table, s.number);
    out.row({s.name(), util::strf("%.0f", avg),
             util::strf("%.1f", benchsup::saving_pct(avg, avg8))});
  }
  std::printf("%s\n", out.render().c_str());
  benchsup::maybe_export_csv(table, "fig10_average_power");

  // Headline numbers vs the best baseline.
  double best_case = 0.0;
  double worst_case = 1e9;
  for (const double pct : table.loads) {
    const double s = benchsup::saving_pct(
        table.at(7, pct).measurement.total_power_w,
        table.at(8, pct).measurement.total_power_w);
    best_case = std::max(best_case, s);
    worst_case = std::min(worst_case, s);
  }
  const double avg7 = benchsup::average_power(table, 7);
  const double avg_saving = benchsup::saving_pct(avg7, avg8);
  std::printf("Holistic (#8) vs cool job allocation (#7):\n");
  std::printf("  average saving : %5.1f%%   (paper: ~7%%)\n", avg_saving);
  std::printf("  best case      : %5.1f%%   (paper: up to 18%%)\n", best_case);
  std::printf("  worst case     : %5.1f%%   (paper: never loses)\n", worst_case);

  // Also check #8 is the best method overall.
  bool is_best = true;
  for (const core::Scenario& s : table.scenarios) {
    if (s.number != 8 && benchsup::average_power(table, s.number) < avg8 - 1e-9) {
      is_best = false;
    }
  }

  const bool pass =
      is_best && avg_saving >= 3.0 && best_case >= 10.0 && worst_case >= -0.5;
  std::printf("\nShape check (#8 best on average; avg saving >= 3%%, best case "
              ">= 10%%, never loses materially): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
