// Ablation: how the holistic method's advantage scales with room size.
//
// The paper's introduction and conclusion both predict it: "We expect that
// savings in larger systems will be more pronounced, as larger spatial
// diversity gives rise to more opportunities for optimization." We sweep
// the fleet size (CRAC and room envelope scaled proportionally, so the
// per-server physics stays comparable) and measure #8 vs #7.

#include <cstdio>

#include "bench/common.h"

using namespace coolopt;

namespace {

control::EvalOptions scaled_room(size_t n) {
  control::EvalOptions options = benchsup::standard_options();
  options.room.num_servers = n;
  const double scale = static_cast<double>(n) / 20.0;
  options.room.crac.flow_m3s *= scale;
  options.room.crac.max_cooling_w *= scale;
  options.room.crac.fan_power_w *= scale;
  options.room.wall_conductance_w_k *= scale;
  options.room.ambient_heat_capacity *= scale;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Ablation: holistic advantage vs room size\n");
  std::printf("(CRAC flow/capacity and envelope scaled with the fleet)\n\n");

  const std::vector<size_t> sizes = {10, 20, 40, 80};
  const std::vector<double> loads = {30, 50, 70, 90};
  util::TextTable out({"servers", "avg #7 (W)", "avg #8 (W)", "avg saving (%)",
                       "best saving (%)", "violations"});

  std::vector<double> savings;
  for (const size_t n : sizes) {
    control::EvalEngine eval(scaled_room(n));
    const auto table = benchsup::run_sweep(
        eval, {core::Scenario::by_number(7), core::Scenario::by_number(8)},
        loads);
    double sum7 = 0.0;
    double sum8 = 0.0;
    double best = 0.0;
    size_t violations = 0;
    for (const double pct : loads) {
      const auto& p7 = table.at(7, pct);
      const auto& p8 = table.at(8, pct);
      sum7 += p7.measurement.total_power_w;
      sum8 += p8.measurement.total_power_w;
      best = std::max(best, benchsup::saving_pct(p7.measurement.total_power_w,
                                                 p8.measurement.total_power_w));
      violations += p7.measurement.temp_violation + p8.measurement.temp_violation;
    }
    const double avg = benchsup::saving_pct(sum7, sum8);
    savings.push_back(avg);
    out.row({util::strf("%zu", n), util::strf("%.0f", sum7 / loads.size()),
             util::strf("%.0f", sum8 / loads.size()), util::strf("%.1f", avg),
             util::strf("%.1f", best), util::strf("%zu", violations)});
  }
  std::printf("%s", out.render().c_str());

  const bool pass = savings.back() >= savings.front() - 0.5 && savings.back() >= 3.0;
  std::printf("\nShape check (savings sustained or growing with room size): %s "
              "(%.1f%% at n=%zu -> %.1f%% at n=%zu)\n",
              pass ? "PASS" : "FAIL", savings.front(), sizes.front(),
              savings.back(), sizes.back());
  return pass ? 0 : 1;
}
