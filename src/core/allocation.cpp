#include "core/allocation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "util/strings.h"

namespace coolopt::core {
namespace {

/// Calls visit(i) for every ON machine i, in index order. With libstdc++,
/// whose vector<bool> packs machine words, it walks the set bits of each
/// word, so a plan pays per ON machine plus one test per word of machines;
/// elsewhere it tests the bits one by one. Either way the visits, and so any
/// fold over them, come in the same order as a plain index loop's.
template <typename Visit>
void for_each_on(const std::vector<bool>& on, Visit&& visit) {
#if defined(__GLIBCXX__)
  using Word = std::remove_cvref_t<decltype(*on.begin()._M_p)>;
  const Word* words = on.begin()._M_p;  // begin()'s bit offset is 0
  constexpr size_t kBits = std::numeric_limits<Word>::digits;
  for (size_t base = 0; base < on.size(); base += kBits) {
    Word bits = words[base / kBits];
    // Bits past size() keep whatever a longer past content left there.
    const size_t left = on.size() - base;
    if (left < kBits) bits &= (Word{1} << left) - 1;
    while (bits != 0) {
      visit(base + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
#else
  for (size_t i = 0; i < on.size(); ++i) {
    if (on[i]) visit(i);
  }
#endif
}

}  // namespace

size_t Allocation::count_on() const {
  size_t k = 0;
  for (const bool b : on) {
    if (b) ++k;
  }
  return k;
}

double Allocation::total_load() const {
  double sum = 0.0;
  for (const double l : loads) sum += l;
  return sum;
}

void Allocation::finalize(const RoomModel& model) {
  if (loads.size() != model.size() || on.size() != model.size()) {
    throw std::logic_error("Allocation::finalize: size mismatch with model");
  }
  it_power_w = 0.0;
  for (size_t i = 0; i < model.size(); ++i) {
    if (on[i]) it_power_w += model.machines[i].power.predict(loads[i]);
  }
  cooling_power_w = model.cooler.predict(t_ac, it_power_w);
  total_power_w = it_power_w + cooling_power_w;
}

void Allocation::finalize(const RoomModel& model, const RoomSoA& soa) {
  if (loads.size() != soa.size() || on.size() != soa.size()) {
    throw std::logic_error("Allocation::finalize: size mismatch with model");
  }
  it_power_w = 0.0;
  for_each_on(on, [&](size_t i) {
    it_power_w += soa.w1[i] * loads[i] + soa.w2[i];
  });
  cooling_power_w = model.cooler.predict(t_ac, it_power_w);
  total_power_w = it_power_w + cooling_power_w;
}

double predicted_cpu_temp(const RoomModel& model, const Allocation& alloc, size_t i) {
  const MachineModel& m = model.machines.at(i);
  const double p = m.power.predict(alloc.loads.at(i));
  return m.thermal.predict(alloc.t_ac, p);
}

double predicted_peak_cpu_temp(const RoomModel& model, const Allocation& alloc) {
  double peak = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < model.size(); ++i) {
    if (alloc.on[i]) peak = std::max(peak, predicted_cpu_temp(model, alloc, i));
  }
  return peak;
}

double predicted_peak_cpu_temp(const RoomSoA& soa, const Allocation& alloc) {
  double peak = -std::numeric_limits<double>::infinity();
  for_each_on(alloc.on, [&](size_t i) {
    const double p = soa.w1[i] * alloc.loads[i] + soa.w2[i];
    const double t = soa.alpha[i] * alloc.t_ac + soa.beta[i] * p + soa.gamma[i];
    peak = std::max(peak, t);
  });
  return peak;
}

void check_allocation(const RoomModel& model, const Allocation& alloc,
                      double total_load, double tol) {
  if (alloc.loads.size() != model.size() || alloc.on.size() != model.size()) {
    throw std::logic_error("check_allocation: size mismatch");
  }
  double sum = 0.0;
  for (size_t i = 0; i < model.size(); ++i) {
    if (alloc.loads[i] < -tol) {
      throw std::logic_error(util::strf("check_allocation: negative load on %zu", i));
    }
    if (!alloc.on[i] && std::abs(alloc.loads[i]) > tol) {
      throw std::logic_error(
          util::strf("check_allocation: load on OFF machine %zu", i));
    }
    sum += alloc.loads[i];
  }
  const double scale = std::max(1.0, std::abs(total_load));
  if (std::abs(sum - total_load) > tol * scale) {
    throw std::logic_error(util::strf(
        "check_allocation: loads sum to %.9g, expected %.9g", sum, total_load));
  }
}

double max_safe_t_ac(const RoomModel& model, const std::vector<double>& loads,
                     const std::vector<bool>& on) {
  double t_ac = model.t_ac_max;
  for (size_t i = 0; i < model.size(); ++i) {
    if (!on[i]) continue;
    const MachineModel& m = model.machines[i];
    const double p = m.power.predict(loads[i]);
    // alpha*t_ac + beta*p + gamma <= t_max
    const double bound = (model.t_max - m.thermal.beta * p - m.thermal.gamma) /
                         m.thermal.alpha;
    t_ac = std::min(t_ac, bound);
  }
  return std::clamp(t_ac, model.t_ac_min, model.t_ac_max);
}

double max_safe_t_ac(const RoomModel& model, const RoomSoA& soa,
                     const std::vector<double>& loads,
                     const std::vector<bool>& on) {
  double t_ac = model.t_ac_max;
  for_each_on(on, [&](size_t i) {
    const double p = soa.w1[i] * loads[i] + soa.w2[i];
    const double bound = (model.t_max - soa.beta[i] * p - soa.gamma[i]) / soa.alpha[i];
    t_ac = std::min(t_ac, bound);
  });
  return std::clamp(t_ac, model.t_ac_min, model.t_ac_max);
}

double conservative_t_ac(const RoomModel& model) {
  std::vector<double> full(model.size());
  std::vector<bool> on(model.size(), true);
  for (size_t i = 0; i < model.size(); ++i) full[i] = model.machines[i].capacity;
  return max_safe_t_ac(model, full, on);
}

}  // namespace coolopt::core
