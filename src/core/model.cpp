#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace coolopt::core {

double MachineModel::k_constant(double t_max) const {
  return (t_max - thermal.beta * power.w2 - thermal.gamma) /
         (thermal.beta * power.w1);
}

double MachineModel::ab_ratio() const { return thermal.alpha / thermal.beta; }

double MachineModel::load_at_tmax(double t_max, double t_ac) const {
  // Eq. 18: L_i = K_i - T_ac * alpha_i / (w1 * beta_i)
  return k_constant(t_max) - t_ac * thermal.alpha / (power.w1 * thermal.beta);
}

double RoomModel::total_capacity() const {
  double total = 0.0;
  for (const MachineModel& m : machines) total += m.capacity;
  return total;
}

namespace {

/// Throws unless `v` is finite (NaN or an infinity in a model CSV would
/// otherwise slip past the sign checks and into every plan).
void require_finite(double v, const char* owner, const char* field) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(util::strf("%s: %s must be finite", owner, field));
  }
}

/// The first thing wrong with machine `m`, worded as validate() reports it
/// after "machine <id>: ", or nullptr. Formats nothing, so a valid room
/// validates without building a message per machine.
const char* machine_problem(const MachineModel& m, double t_max) {
  if (!(m.power.w1 > 0.0)) return "w1 must be > 0";
  if (!(m.power.w2 >= 0.0)) return "w2 must be >= 0";
  if (!(m.thermal.alpha > 0.0)) return "alpha must be > 0";
  if (!(m.thermal.beta > 0.0)) return "beta must be > 0";
  if (!(m.capacity > 0.0)) return "capacity must be > 0";
  if (!(t_max > m.thermal.gamma + m.thermal.beta * m.power.w2)) {
    return "t_max unreachable (<= gamma + beta*w2: the machine would "
           "violate the constraint while idle even with 0-degree air)";
  }
  if (!std::isfinite(m.power.w1)) return "w1 must be finite";
  if (!std::isfinite(m.power.w2)) return "w2 must be finite";
  if (!std::isfinite(m.thermal.alpha)) return "alpha must be finite";
  if (!std::isfinite(m.thermal.beta)) return "beta must be finite";
  if (!std::isfinite(m.thermal.gamma)) return "gamma must be finite";
  if (!std::isfinite(m.capacity)) return "capacity must be finite";
  return nullptr;
}

}  // namespace

void RoomModel::validate() const {
  if (machines.empty()) {
    throw std::invalid_argument("RoomModel: no machines");
  }
  for (const MachineModel& m : machines) {
    if (const char* problem = machine_problem(m, t_max)) {
      throw std::invalid_argument(util::strf("machine %d: %s", m.id, problem));
    }
  }
  if (!(cooler.cfac > 0.0)) {
    throw std::invalid_argument("RoomModel: cooler cfac must be > 0");
  }
  if (!(t_ac_min < t_ac_max)) {
    throw std::invalid_argument("RoomModel: t_ac_min must be < t_ac_max");
  }
  require_finite(t_max, "RoomModel", "t_max");
  require_finite(t_ac_min, "RoomModel", "t_ac_min");
  require_finite(t_ac_max, "RoomModel", "t_ac_max");
  require_finite(cooler.cfac, "RoomModel", "cooler cfac");
  require_finite(cooler.t_sp_ref, "RoomModel", "cooler t_sp_ref");
  require_finite(cooler.fan_offset_w, "RoomModel", "cooler fan_offset_w");
  require_finite(cooler.q_coeff, "RoomModel", "cooler q_coeff");
  require_finite(cooler.min_power_w, "RoomModel", "cooler min_power_w");
  // The bounded solver fills the cheapest machines first because total
  // power rises with IT power, which holds exactly when q_coeff > -1.
  if (!(cooler.q_coeff > -1.0)) {
    throw std::invalid_argument("RoomModel: cooler q_coeff must be > -1");
  }
}

void RoomModel::validate_on_set(const std::vector<size_t>& on_set,
                                double total_load, const char* who) const {
  if (on_set.empty()) {
    throw std::invalid_argument(util::strf("%s: empty ON set", who));
  }
  if (total_load < 0.0) {
    throw std::invalid_argument(util::strf("%s: negative load", who));
  }
  std::vector<char> seen(size(), 0);
  for (const size_t i : on_set) {
    if (i >= size()) {
      throw std::invalid_argument(
          util::strf("%s: machine index %zu out of range", who, i));
    }
    if (seen[i]) {
      throw std::invalid_argument(
          util::strf("%s: duplicate machine index %zu", who, i));
    }
    seen[i] = 1;
  }
}

bool RoomModel::uniform_w1() const {
  constexpr double kRelTol = 1e-9;
  if (machines.empty()) return true;
  const double ref = machines.front().power.w1;
  for (const MachineModel& m : machines) {
    if (std::abs(m.power.w1 - ref) > kRelTol * std::abs(ref)) return false;
  }
  return true;
}

bool RoomModel::uniform_w2() const {
  constexpr double kTol = 1e-6;
  if (machines.empty()) return true;
  const double ref = machines.front().power.w2;
  for (const MachineModel& m : machines) {
    if (std::abs(m.power.w2 - ref) > kTol * std::max(1.0, std::abs(ref))) {
      return false;
    }
  }
  return true;
}

RoomSoA RoomSoA::from(const RoomModel& model) {
  RoomSoA soa;
  const size_t n = model.size();
  soa.w1.resize(n);
  soa.w2.resize(n);
  soa.alpha.resize(n);
  soa.beta.resize(n);
  soa.gamma.resize(n);
  soa.capacity.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const MachineModel& m = model.machines[i];
    soa.w1[i] = m.power.w1;
    soa.w2[i] = m.power.w2;
    soa.alpha[i] = m.thermal.alpha;
    soa.beta[i] = m.thermal.beta;
    soa.gamma[i] = m.thermal.gamma;
    soa.capacity[i] = m.capacity;
  }
  return soa;
}

size_t RoomSoA::bytes() const {
  return (w1.capacity() + w2.capacity() + alpha.capacity() + beta.capacity() +
          gamma.capacity() + capacity.capacity()) *
         sizeof(double);
}

}  // namespace coolopt::core
