// Ablation: cooler-model calibration (EXPERIMENTS.md, Finding 1).
//
// The paper fits Eq. 10 (P_ac = cfac*(T_SP - T_ac)) and optimizes against
// it. Regressing measured CRAC power on the measured temperature gap
// yields a slope dominated by heat-load-driven variation, which overstates
// the electric value of warm supply air several-fold; the consolidation
// then over-provisions machines. This bench runs the holistic method (#8)
// against the best baseline (#7) under both calibrations and quantifies
// the damage — and the repair.

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

namespace {

struct CalibResult {
  double cfac = 0.0;
  double avg_saving_pct = 0.0;
  double worst_saving_pct = 0.0;
  double avg_machines_8 = 0.0;
  double avg_machines_7 = 0.0;
};

CalibResult run(bool operational) {
  control::EvalOptions options = benchsup::standard_options();
  options.profiling.cooler.operational_fit = operational;
  control::EvalEngine eval(options);
  const std::vector<double> loads = {10, 20, 30, 40, 50, 60, 70, 80, 90};
  const auto table = benchsup::run_sweep(
      eval, {core::Scenario::by_number(7), core::Scenario::by_number(8)},
      loads);

  CalibResult r;
  r.cfac = eval.model().cooler.cfac;
  double sum7 = 0.0;
  double sum8 = 0.0;
  r.worst_saving_pct = 1e9;
  for (const double pct : loads) {
    const double p7 = table.at(7, pct).measurement.total_power_w;
    const double p8 = table.at(8, pct).measurement.total_power_w;
    sum7 += p7;
    sum8 += p8;
    r.worst_saving_pct = std::min(r.worst_saving_pct, benchsup::saving_pct(p7, p8));
    r.avg_machines_7 += static_cast<double>(table.at(7, pct).measurement.machines_on);
    r.avg_machines_8 += static_cast<double>(table.at(8, pct).measurement.machines_on);
  }
  r.avg_saving_pct = benchsup::saving_pct(sum7, sum8);
  r.avg_machines_7 /= static_cast<double>(loads.size());
  r.avg_machines_8 /= static_cast<double>(loads.size());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Ablation: paper-literal vs operational cooler calibration\n\n");

  const CalibResult paper = run(/*operational=*/false);
  const CalibResult operational = run(/*operational=*/true);

  util::TextTable out({"calibration", "fitted cfac (W/K)", "avg #8-on",
                       "avg #7-on", "#8 vs #7 avg (%)", "#8 vs #7 worst (%)"});
  out.row({"paper-literal Eq. 10 slope", util::strf("%.1f", paper.cfac),
           util::strf("%.1f", paper.avg_machines_8),
           util::strf("%.1f", paper.avg_machines_7),
           util::strf("%.1f", paper.avg_saving_pct),
           util::strf("%.1f", paper.worst_saving_pct)});
  out.row({"operational (default)", util::strf("%.1f", operational.cfac),
           util::strf("%.1f", operational.avg_machines_8),
           util::strf("%.1f", operational.avg_machines_7),
           util::strf("%.1f", operational.avg_saving_pct),
           util::strf("%.1f", operational.worst_saving_pct)});
  std::printf("%s\n", out.render().c_str());

  std::printf("The paper-literal slope is %.1fx the operational sensitivity; "
              "under it the holistic method powers %.1f extra machines on "
              "average and its advantage %s.\n",
              paper.cfac / operational.cfac,
              paper.avg_machines_8 - operational.avg_machines_8,
              paper.avg_saving_pct < operational.avg_saving_pct - 0.5
                  ? "shrinks or inverts"
                  : "is largely unchanged");

  const bool pass = paper.cfac > 1.5 * operational.cfac &&
                    operational.avg_saving_pct >= paper.avg_saving_pct - 0.3 &&
                    operational.worst_saving_pct >= -0.5;
  std::printf("\nShape check (literal slope inflated; operational calibration "
              "at least as good and never losing): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
