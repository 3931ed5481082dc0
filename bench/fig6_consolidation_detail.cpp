// Reproduces Fig. 6: the consolidation benefit in detail as a function of
// total load.
//
// Paper shape: "consolidation gives the most benefit when the load on the
// data center is low. The benefit gradually diminishes when load increases,
// since the number of powered-off servers decreases as the load increases."

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 6 reproduction: consolidation benefit vs load\n\n");

  control::EvalEngine eval(benchsup::standard_options());
  const std::vector<core::Scenario> scenarios = {
      core::Scenario::by_number(5), core::Scenario::by_number(7),
      core::Scenario::by_number(6), core::Scenario::by_number(8),
  };
  const auto table =
      benchsup::run_sweep(eval, scenarios, control::paper_load_axis());

  util::TextTable out({"load %", "#5 power (W)", "#7 power (W)", "machines off",
                       "saving (W)", "saving (%)", "#6 vs #8 saving (%)"});
  std::vector<double> savings;
  for (const double pct : table.loads) {
    const auto& p5 = table.at(5, pct).measurement;
    const auto& p7 = table.at(7, pct).measurement;
    const auto& p6 = table.at(6, pct).measurement;
    const auto& p8 = table.at(8, pct).measurement;
    const double saving_w = p5.total_power_w - p7.total_power_w;
    const double saving_pct = 100.0 * saving_w / p5.total_power_w;
    savings.push_back(saving_pct);
    out.row({util::strf("%.0f", pct), util::strf("%.0f", p5.total_power_w),
             util::strf("%.0f", p7.total_power_w),
             util::strf("%zu", eval.model().size() - p7.machines_on),
             util::strf("%.0f", saving_w), util::strf("%.1f", saving_pct),
             util::strf("%.1f", benchsup::saving_pct(p6.total_power_w,
                                                     p8.total_power_w))});
  }
  std::printf("%s", out.render().c_str());
  benchsup::maybe_export_csv(table, "fig6_consolidation_detail");

  // Shape: benefit is largest at the lowest load and ~0 at 100 %, with a
  // broadly diminishing trend (allow small non-monotone steps from the
  // integer machine counts).
  bool pass = savings.front() >= 30.0 && savings.back() <= 2.0 &&
              savings.front() > savings[savings.size() / 2] &&
              savings[savings.size() / 2] > savings.back();
  std::printf("\nShape check (benefit largest at low load, vanishing at 100%%): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
