// The fitted models the optimizer consumes (Section II of the paper).
//
// All three are produced by the profiling module (or constructed synthetically
// in tests):
//   PowerModel    P_i   = w1 * L_i + w2                      (Eq. 9)
//   ThermalCoeffs T_cpu = alpha * T_ac + beta * P + gamma    (Eq. 8)
//   CoolerModel   P_ac  = cfac * (T_SP - T_ac)               (Eq. 10)
//
// Loads are in workload units (files/s in the paper's text-processing app),
// temperatures in degrees C, powers in Watts.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace coolopt::core {

struct PowerModel {
  double w1 = 0.0;  ///< W per load unit
  double w2 = 0.0;  ///< load-independent draw, W

  /// Eq. 9: P = w1*L + w2.
  double predict(double load) const { return w1 * load + w2; }
};

struct ThermalCoeffs {
  double alpha = 0.0;  ///< sensitivity of T_cpu to the cool-air temperature
  double beta = 0.0;   ///< K per W of own power (Eq. 6's 1/(F c) + 1/theta)
  double gamma = 0.0;  ///< offset capturing the machine's spot in the room

  /// Eq. 8: T_cpu = alpha*T_ac + beta*P + gamma.
  double predict(double t_ac, double power_w) const {
    return alpha * t_ac + beta * power_w + gamma;
  }
};

struct CoolerModel {
  /// Effective c * f_ac of Eq. 10 (c = c_air/eta), W per K of (T_SP - T_ac).
  /// Under the default *operational* calibration this is the measured
  /// sensitivity of CRAC electric power to the supply temperature when the
  /// set point is moved with it (the knob the optimizer actually turns);
  /// under the paper-literal calibration it is the raw regression slope of
  /// P_ac on (T_SP - T_ac), which conflates heat-load-driven and
  /// knob-driven variation (see profiling::CoolerProfilerOptions).
  double cfac = 0.0;
  /// Reference set point used when evaluating the model's P_ac. The
  /// optimization is invariant to it (it only shifts P_ac by a constant).
  double t_sp_ref = 0.0;
  /// Load-independent draw (circulation fan); not in the paper's Eq. 10 but
  /// fitted by our cooler profiler; constant, so also optimization-neutral.
  double fan_offset_w = 0.0;
  /// Marginal CRAC watts per watt of IT heat (0 under the paper-literal
  /// calibration). Makes the model charge each extra consolidated machine
  /// for the cooling of its idle draw; the closed form (Eqs. 18-22) is
  /// unchanged by this term (it never involves cfac or q_coeff).
  double q_coeff = 0.0;
  /// Physical floor on the unit's electric draw (the circulation fan never
  /// stops): predictions saturate here instead of extrapolating the linear
  /// model into fictitious savings once the coil shuts off. Defaults to
  /// "no floor" so synthetic pure-linear models behave as written.
  double min_power_w = -1.0e300;

  /// Eq. 10: P_ac = cfac*(T_SP - T_ac), plus the fitted extensions above.
  double predict(double t_ac, double q_it_w) const {
    const double linear = cfac * (t_sp_ref - t_ac) + q_coeff * q_it_w + fan_offset_w;
    return linear > min_power_w ? linear : min_power_w;
  }
};

/// One machine as the optimizer sees it.
struct MachineModel {
  int id = -1;
  PowerModel power;
  ThermalCoeffs thermal;
  double capacity = 0.0;  ///< max load, files/s

  /// Eq. 19: K_i = (T_max - beta*w2 - gamma) / (beta*w1); the machine's
  /// particle's initial coordinate a_i in the consolidation view.
  double k_constant(double t_max) const;

  /// alpha_i / beta_i; the particle's speed b_i.
  double ab_ratio() const;

  /// Load that pins T_cpu at t_max given cool-air temperature t_ac (Eq. 18).
  double load_at_tmax(double t_max, double t_ac) const;
};

/// The full room model plus operating constraints.
struct RoomModel {
  std::vector<MachineModel> machines;
  CoolerModel cooler;
  double t_max = 0.0;          ///< CPU temperature ceiling, degrees C
  double t_ac_min = 0.0;       ///< lowest cool-air temp the CRAC can supply
  double t_ac_max = 100.0;     ///< highest useful cool-air temp

  size_t size() const { return machines.size(); }
  double total_capacity() const;

  /// Throws std::invalid_argument describing the first problem found
  /// (non-positive w1/beta/alpha/capacity, t_max not above gamma, a NaN or
  /// infinite coefficient or bound, a cooler q_coeff at or below -1, ...).
  /// The optimizer requires a validated model.
  void validate() const;

  /// The input checks of the optimizers' validating solve(): throws
  /// std::invalid_argument, prefixed with `who`, on an empty ON set, a
  /// negative load, or an out-of-range or duplicate machine index.
  void validate_on_set(const std::vector<size_t>& on_set, double total_load,
                       const char* who) const;

  /// True when every machine's w1 lies within 1e-9 of the first machine's,
  /// relative: the one fitted PowerModel the closed form (Eqs. 18-22) and
  /// the Eq. 23 particle reduction assume. The bound is tight because the
  /// closed form sets T_ac with the first machine's w1: on a 12-machine
  /// synthetic room, a spread of 1e-7 already runs machines 3.8e-6 C over
  /// T_max, past the planner's 1e-6 C safety check. The one uniformity rule
  /// under src/: the planner, the closed form and the particle reduction
  /// all read it.
  bool uniform_w1() const;

  /// True when every machine's w2 lies within 1e-6 * max(1, |w2|) of the
  /// first machine's. The Eq. 23 particle reduction needs it as well as
  /// uniform_w1().
  bool uniform_w2() const;
};

/// Structure-of-arrays mirror of RoomModel::machines: one contiguous array
/// per coefficient, holding the exact doubles of the source structs. The
/// hot aggregation loops (Eq. 19/21/22 sums, the bounded sweep,
/// peak-temperature scans) read these flat blocks instead of striding
/// through 72-byte MachineModel records, which is what lets them
/// autovectorize. The AoS structs stay the authoritative view; a RoomSoA is
/// derived once per model and never mutated, so SoA-based results are
/// bit-for-bit what the struct walk computes.
struct RoomSoA {
  std::vector<double> w1;        ///< PowerModel::w1
  std::vector<double> w2;        ///< PowerModel::w2
  std::vector<double> alpha;     ///< ThermalCoeffs::alpha
  std::vector<double> beta;      ///< ThermalCoeffs::beta
  std::vector<double> gamma;     ///< ThermalCoeffs::gamma
  std::vector<double> capacity;  ///< MachineModel::capacity

  static RoomSoA from(const RoomModel& model);
  size_t size() const { return w1.size(); }
  /// Resident heap footprint — feeds the engine.alloc_bytes gauge.
  size_t bytes() const;
};

/// The solver stack shares one immutable model instead of copying it into
/// every optimizer (the model is fitted once and never mutated between
/// replans).
using SharedRoomModel = std::shared_ptr<const RoomModel>;

/// Wraps a model for sharing without re-copying it.
inline SharedRoomModel share_model(RoomModel model) {
  return std::make_shared<const RoomModel>(std::move(model));
}

/// Constructor tag asserting the caller has already run
/// RoomModel::validate() on the exact object being shared — the PlanEngine
/// validates once and hands the tag down so the optimizers' constructors
/// stay cheap.
struct PreValidated {};
inline constexpr PreValidated kPreValidated{};

}  // namespace coolopt::core
