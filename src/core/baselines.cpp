#include "core/baselines.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/strings.h"

namespace coolopt::core {
namespace {

/// Summing the same n positive capacities in two different orders can
/// disagree by up to about n ulps of the total. A load within that band of
/// a capacity sum IS that capacity (PlanEngine admits load == the room's
/// capacity, folded in machine order), so the allocators below accept it
/// instead of throwing — only where they would otherwise have thrown.
double reorder_slack(double total, size_t n) {
  return static_cast<double>(n) * std::numeric_limits<double>::epsilon() * total;
}

}  // namespace

std::vector<size_t> coolness_order(const RoomModel& model, double reference_t_ac) {
  std::vector<size_t> order(model.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> idle_temp(model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    const MachineModel& m = model.machines[i];
    idle_temp[i] = m.thermal.predict(reference_t_ac, m.power.predict(0.0));
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (idle_temp[x] != idle_temp[y]) return idle_temp[x] < idle_temp[y];
    return x < y;
  });
  return order;
}

size_t min_machines_for(const RoomModel& model, double load,
                        const std::vector<size_t>& order) {
  if (load < 0.0) throw std::invalid_argument("min_machines_for: negative load");
  if (load == 0.0) return 0;
  double covered = 0.0;
  for (size_t k = 0; k < order.size(); ++k) {
    covered += model.machines[order[k]].capacity;
    if (covered >= load - 1e-9) return k + 1;
  }
  if (load - covered <= 1e-9 + reorder_slack(covered, order.size())) {
    return order.size();
  }
  throw std::invalid_argument(util::strf(
      "min_machines_for: load %.3f exceeds room capacity %.3f", load,
      model.total_capacity()));
}

void even_allocation(const RoomModel& model, double load,
                     const std::vector<size_t>& on_set, Allocation& out) {
  if (on_set.empty()) throw std::invalid_argument("even_allocation: empty ON set");
  out.loads.assign(model.size(), 0.0);
  out.on.assign(model.size(), false);
  out.t_ac = 0.0;
  for (const size_t i : on_set) out.on.at(i) = true;

  // Water-fill an even share, pinning machines that hit capacity. A pinned
  // machine carries its (positive) capacity; the free ones stay at zero
  // until the round that shares out the rest.
  size_t free = on_set.size();
  double remaining = load;
  while (remaining > 1e-12) {
    if (free == 0) {
      if (remaining <= reorder_slack(load, on_set.size())) break;
      throw std::invalid_argument(
          "even_allocation: load exceeds the ON set's capacity");
    }
    const double share = remaining / static_cast<double>(free);
    size_t pinned = 0;
    for (const size_t i : on_set) {
      if (out.loads[i] != 0.0) continue;
      const double room_left = model.machines[i].capacity;
      if (share >= room_left - 1e-12) {
        out.loads[i] = room_left;
        remaining -= room_left;
        ++pinned;
      }
    }
    if (pinned == 0) {
      for (const size_t i : on_set) {
        if (out.loads[i] == 0.0) out.loads[i] = share;
      }
      remaining = 0.0;
    }
    free -= pinned;
  }
  out.finalize(model);
}

void bottom_up_allocation(const RoomModel& model, double load,
                          const std::vector<size_t>& on_set, Allocation& out) {
  if (on_set.empty()) {
    throw std::invalid_argument("bottom_up_allocation: empty ON set");
  }
  out.loads.assign(model.size(), 0.0);
  out.on.assign(model.size(), false);
  out.t_ac = 0.0;
  for (const size_t i : on_set) out.on.at(i) = true;

  // Fill in the listed order (coolest spots first), to capacity.
  double remaining = load;
  for (const size_t i : on_set) {
    if (remaining <= 1e-12) break;
    const double take = std::min(remaining, model.machines[i].capacity);
    out.loads[i] = take;
    remaining -= take;
  }
  if (remaining > 1e-9 + reorder_slack(load, on_set.size())) {
    throw std::invalid_argument(
        "bottom_up_allocation: load exceeds the ON set's capacity");
  }
  out.finalize(model);
}

}  // namespace coolopt::core
