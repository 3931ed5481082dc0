// Ablation: how the holistic method's advantage scales with the room's
// spatial thermal diversity.
//
// The paper's introduction predicts: "savings in larger systems will be
// more pronounced, as larger spatial diversity gives rise to more
// opportunities for optimization." We test the converse too: as
// diversity_scale -> 0 every slot becomes thermally identical and the
// optimal distribution degenerates to Even, so #8's edge over #7 should
// shrink toward the pure-consolidation difference.

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Ablation: holistic advantage vs spatial diversity\n\n");

  const std::vector<double> scales = {0.0, 0.25, 0.5, 0.75, 1.0, 1.25};
  const std::vector<double> loads = {30, 50, 70, 90};
  util::TextTable out({"diversity scale", "avg #7 (W)", "avg #8 (W)",
                       "avg saving (%)", "best saving (%)"});

  std::vector<double> avg_savings;
  for (const double scale : scales) {
    control::EvalOptions options = benchsup::standard_options();
    options.room.diversity_scale = scale;
    control::EvalEngine eval(options);
    const auto table = benchsup::run_sweep(
        eval, {core::Scenario::by_number(7), core::Scenario::by_number(8)},
        loads);

    double sum7 = 0.0;
    double sum8 = 0.0;
    double best = 0.0;
    for (const double pct : loads) {
      const double p7 = table.at(7, pct).measurement.total_power_w;
      const double p8 = table.at(8, pct).measurement.total_power_w;
      sum7 += p7;
      sum8 += p8;
      best = std::max(best, benchsup::saving_pct(p7, p8));
    }
    const double avg_saving = benchsup::saving_pct(sum7, sum8);
    avg_savings.push_back(avg_saving);
    out.row({util::strf("%.2f", scale), util::strf("%.0f", sum7 / loads.size()),
             util::strf("%.0f", sum8 / loads.size()),
             util::strf("%.1f", avg_saving), util::strf("%.1f", best)});
  }
  std::printf("%s", out.render().c_str());

  const bool pass = avg_savings.back() > avg_savings.front() + 1.0;
  std::printf("\nShape check (savings grow with spatial diversity): %s "
              "(%.1f%% at scale 0 -> %.1f%% at max)\n",
              pass ? "PASS" : "FAIL", avg_savings.front(), avg_savings.back());
  return pass ? 0 : 1;
}
