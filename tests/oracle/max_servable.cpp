#include "tests/oracle/max_servable.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/allocation.h"
#include "core/baselines.h"
#include "tests/oracle/lp_optimizer.h"

namespace coolopt::core {
namespace {

/// Largest x in [a, b] the predicate accepts, given that it accepts a and
/// rejects b and is monotone in between, to 1e-13 relative.
template <typename Servable>
double bisect(double a, double b, Servable&& servable) {
  while (b - a > 1e-13 * std::max(1.0, b)) {
    const double mid = 0.5 * (a + b);
    if (mid <= a || mid >= b) break;
    (servable(mid) ? a : b) = mid;
  }
  return a;
}

double optimal_max(const RoomModel& model, const Scenario& s, double load,
                   const std::vector<size_t>& allowed) {
  const LpOptimizer lp(model);
  if (!s.consolidation) {
    const std::optional<double> most = lp.max_load(allowed);
    return most ? std::min(load, *most) : -1.0;
  }
  if (allowed.size() > 12) {
    throw std::invalid_argument(
        "oracle_max_servable: the ON-set enumeration takes at most 12 "
        "machines");
  }
  double best = 0.0;  // everything OFF
  std::vector<size_t> subset;
  for (size_t mask = 1; mask < (size_t{1} << allowed.size()); ++mask) {
    subset.clear();
    for (size_t j = 0; j < allowed.size(); ++j) {
      if (mask & (size_t{1} << j)) subset.push_back(allowed[j]);
    }
    if (const std::optional<double> most = lp.max_load(subset)) {
      best = std::max(best, *most);
    }
  }
  return std::min(load, best);
}

}  // namespace

double oracle_max_servable(const RoomModel& model, const Scenario& s,
                           double load, const std::vector<size_t>& allowed,
                           double rule_slack_c) {
  if (s.distribution == Distribution::kOptimal) {
    return optimal_max(model, s, load, allowed);
  }

  std::vector<size_t> order;  // the allowed machines, coolest first
  for (const size_t i : coolness_order(model)) {
    if (std::binary_search(allowed.begin(), allowed.end(), i)) {
      order.push_back(i);
    }
  }
  const double fixed_t_ac = conservative_t_ac(model);
  std::vector<size_t> prefix;
  Allocation alloc;
  // The rule's plan at load l: its ON set, its split, its T_ac.
  const auto servable = [&](double l) {
    const std::vector<size_t>* on = &allowed;
    if (s.distribution == Distribution::kBottomUp) on = &order;
    try {
      if (s.consolidation) {
        const size_t k = min_machines_for(model, l, order);
        if (k == 0) return true;  // everything OFF
        prefix.assign(order.begin(), order.begin() + static_cast<long>(k));
        on = &prefix;
      }
      if (s.distribution == Distribution::kEven) {
        even_allocation(model, l, *on, alloc);
      } else {
        bottom_up_allocation(model, l, *on, alloc);
      }
    } catch (const std::invalid_argument&) {
      return false;
    }
    alloc.t_ac = s.ac_control ? max_safe_t_ac(model, alloc.loads, alloc.on)
                              : fixed_t_ac;
    return predicted_peak_cpu_temp(model, alloc) <= model.t_max + rule_slack_c;
  };

  if (!s.consolidation) {
    if (servable(load)) return load;
    if (!servable(0.0)) return -1.0;
    return bisect(0.0, load, servable);
  }
  // min_machines_for runs loads in (C_k + 1e-9, C_{k+1} + 1e-9] on the
  // coolest k + 1 machines; within one prefix, servability falls with load.
  double best = 0.0;
  double below = 0.0;
  for (size_t k = 0; k < order.size() && below < load; ++k) {
    const double top = std::min(load, below + model.machines[order[k]].capacity);
    if (servable(top)) {
      best = top;
    } else {
      const double inside = below + 1e-8;
      if (inside < top && servable(inside)) best = bisect(inside, top, servable);
    }
    below += model.machines[order[k]].capacity;
  }
  return best;
}

}  // namespace coolopt::core
