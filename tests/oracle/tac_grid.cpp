#include "tests/oracle/tac_grid.h"

#include <algorithm>

namespace coolopt::core {
namespace {

constexpr size_t kPoints = 20001;

}  // namespace

std::optional<Allocation> tac_grid_best(const RoomModel& model,
                                        const std::vector<size_t>& on_set,
                                        double load) {
  std::vector<size_t> order = on_set;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double wa = model.machines[a].power.w1;
    const double wb = model.machines[b].power.w1;
    return wa < wb || (wa == wb && a < b);
  });
  std::optional<Allocation> best;
  Allocation trial;
  for (size_t g = 0; g < kPoints; ++g) {
    const double t_ac =
        model.t_ac_min + (model.t_ac_max - model.t_ac_min) *
                             static_cast<double>(g) /
                             static_cast<double>(kPoints - 1);
    trial.loads.assign(model.size(), 0.0);
    trial.on.assign(model.size(), false);
    trial.t_ac = t_ac;
    double rest = load;
    bool too_hot = false;
    for (const size_t i : order) {
      const MachineModel& m = model.machines[i];
      const double thermal =
          (model.t_max - m.thermal.gamma - m.thermal.beta * m.power.w2 -
           m.thermal.alpha * t_ac) /
          (m.thermal.beta * m.power.w1);
      if (thermal < 0.0) too_hot = true;
      const double li = std::clamp(std::min(m.capacity, thermal), 0.0, rest);
      trial.on[i] = true;
      trial.loads[i] = li;
      rest -= li;
    }
    if (too_hot || rest > 1e-9 * std::max(1.0, load)) continue;
    trial.finalize(model);
    if (!best || trial.total_power_w < best->total_power_w) best = trial;
  }
  return best;
}

}  // namespace coolopt::core
