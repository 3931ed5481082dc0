#include "core/bounded.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace coolopt::core {
namespace {

/// Slack on the T_ac feasibility bound (degrees C) and, relative to the
/// load, on carrying the load at t_ac_min: rounding in a capacity sum (a
/// few ulps per machine) must not turn a load at exactly the ON set's
/// capacity into an infeasible one, while a load 1e-9 above it, which
/// PlanEngine sheds down to that capacity, is refused.
constexpr double kTacTol = 1e-9;
constexpr double kLoadTol = 1e-10;
/// Relative spread of totals treated as a tie (the running sums' rounding).
constexpr double kTieTol = 1e-12;

/// Running sums over the filled prefix of the ascending-w1 order: the
/// prefix carries S(T) = cap + k - s*T and draws W(T) = wcap + wk - ws*T
/// watts of load-proportional power.
struct Prefix {
  double cap = 0.0;
  double k = 0.0;
  double s = 0.0;
  double wcap = 0.0;
  double wk = 0.0;
  double ws = 0.0;

  double load(double t) const { return cap + k - s * t; }
  double power(double t) const { return wcap + wk - ws * t; }
};

}  // namespace

BoundedOptimizer::BoundedOptimizer(SharedRoomModel model)
    : BoundedOptimizer(model, std::make_shared<RoomSoA>(RoomSoA::from(*model)),
                       kPreValidated) {
  model_->validate();
}

BoundedOptimizer::BoundedOptimizer(SharedRoomModel model,
                                   std::shared_ptr<const RoomSoA> soa,
                                   PreValidated)
    : model_(std::move(model)), soa_(std::move(soa)) {
  const size_t n = model_->size();
  k_.resize(n);
  s_.resize(n);
  tau_.resize(n);
  zero_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double headroom =
        model_->t_max - soa_->beta[i] * soa_->w2[i] - soa_->gamma[i];
    k_[i] = headroom / (soa_->beta[i] * soa_->w1[i]);
    s_[i] = soa_->alpha[i] / (soa_->beta[i] * soa_->w1[i]);
    tau_[i] = (k_[i] - soa_->capacity[i]) / s_[i];
    zero_[i] = headroom / soa_->alpha[i];
  }
}

bool BoundedOptimizer::solve_into(const size_t* on_set, size_t count,
                                  double total_load, BoundedWorkspace& ws,
                                  Allocation& out) const {
  const RoomModel& model = *model_;
  const RoomSoA& soa = *soa_;
  const CoolerModel& cooler = model.cooler;
  out.loads.assign(model.size(), 0.0);
  out.on.assign(model.size(), false);
  if (count == 0) {
    if (total_load > 0.0) return false;
    out.t_ac = model.t_ac_max;
    out.finalize(model, soa);
    return true;
  }

  // The workspace is sized for the whole room on first use, so a warm
  // thread never grows it, whatever ON set comes next.
  ws.by_w1.reserve(model.size());
  ws.by_tau.reserve(model.size());
  ws.thermal.reserve(model.size());

  // The fill order, the idle draw, and the warmest air every ON machine
  // survives at zero load.
  ws.by_w1.assign(on_set, on_set + count);
  std::sort(ws.by_w1.begin(), ws.by_w1.end(), [&](uint32_t a, uint32_t b) {
    return soa.w1[a] < soa.w1[b] || (soa.w1[a] == soa.w1[b] && a < b);
  });
  const double t_lo = model.t_ac_min;
  double t_hi = model.t_ac_max;
  double idle = 0.0;
  for (const uint32_t i : ws.by_w1) {
    t_hi = std::min(t_hi, zero_[i]);
    idle += soa.w2[i];
  }
  if (t_hi < t_lo - kTacTol) return false;
  t_hi = std::max(t_hi, t_lo);

  // Cap switches (capacity -> thermal bound) in ascending T_ac; every
  // switch at or below the current T_ac has been applied.
  ws.by_tau.resize(count);
  std::iota(ws.by_tau.begin(), ws.by_tau.end(), uint32_t{0});
  const auto tau_at = [&](uint32_t p) { return tau_[ws.by_w1[p]]; };
  std::sort(ws.by_tau.begin(), ws.by_tau.end(), [&](uint32_t a, uint32_t b) {
    return tau_at(a) < tau_at(b) || (tau_at(a) == tau_at(b) && a < b);
  });
  ws.thermal.assign(count, 0);
  size_t next = 0;
  while (next < count && tau_at(ws.by_tau[next]) <= t_lo) {
    ws.thermal[ws.by_tau[next++]] = 1;
  }

  Prefix pre;
  const auto add = [&](size_t p, double sign) {
    const uint32_t i = ws.by_w1[p];
    const double w1 = soa.w1[i];
    if (ws.thermal[p]) {
      pre.k += sign * k_[i];
      pre.s += sign * s_[i];
      pre.wk += sign * w1 * k_[i];
      pre.ws += sign * w1 * s_[i];
    } else {
      pre.cap += sign * soa.capacity[i];
      pre.wcap += sign * w1 * soa.capacity[i];
    }
  };
  // The marginal machine: the first position whose prefix carries the load.
  size_t m = 0;
  add(0, 1.0);
  while (pre.load(t_lo) < total_load && m + 1 < count) add(++m, 1.0);
  if (total_load - pre.load(t_lo) > kLoadTol * std::max(1.0, total_load)) {
    return false;
  }

  // V(T) on the current piece: the prefix runs at its caps except the
  // marginal machine, which takes what is left.
  const auto it_power = [&](double t) {
    return pre.power(t) -
           soa.w1[ws.by_w1[m]] * (pre.load(t) - total_load) + idle;
  };
  const auto above_floor = [&](double t) {
    return cooler.cfac * (cooler.t_sp_ref - t) +
           cooler.q_coeff * it_power(t) + cooler.fan_offset_w -
           cooler.min_power_w;
  };
  double best_t = t_lo;
  double best_v = std::numeric_limits<double>::infinity();
  const auto consider = [&](double t) {
    const double it = it_power(t);
    const double v = it + cooler.predict(t, it);
    if (v <= best_v + kTieTol * std::abs(best_v)) {
      best_t = t;
      best_v = std::min(best_v, v);
    }
  };
  consider(t_lo);

  // The sweep: each piece ends at the next cap switch, the T_ac where the
  // marginal machine fills up, or t_hi; the cooler may reach its floor
  // inside a piece.
  double t = t_lo;
  while (t < t_hi) {
    double t_next = t_hi;
    if (next < count) t_next = std::min(t_next, tau_at(ws.by_tau[next]));
    bool marginal_full = false;
    if (pre.s > 0.0) {
      const double t_full =
          std::max(t, (pre.cap + pre.k - total_load) / pre.s);
      if (t_full <= t_next) {
        t_next = t_full;
        marginal_full = true;
      }
    }
    const double ga = above_floor(t);
    const double gb = above_floor(t_next);
    if ((ga > 0.0) != (gb > 0.0)) consider(t + (t_next - t) * ga / (ga - gb));
    consider(t_next);
    t = t_next;
    if (marginal_full) {
      if (m + 1 == count) break;  // every ON machine is full: t is the end
      add(++m, 1.0);
    }
    while (next < count && tau_at(ws.by_tau[next]) <= t) {
      const uint32_t p = ws.by_tau[next++];
      if (p <= m) add(p, -1.0);
      ws.thermal[p] = 1;
      if (p <= m) add(p, 1.0);
    }
    while (pre.load(t) < total_load && m + 1 < count) add(++m, 1.0);
  }

  // The allocation at the chosen T_ac, filled from its own caps. What the
  // caps leave over is rounding the load tolerance forgave; the last
  // machine to take load absorbs it, so the loads still sum to total_load.
  double rest = total_load;
  uint32_t last = ws.by_w1.front();
  for (const uint32_t i : ws.by_w1) {
    const double thermal_cap =
        (model.t_max - soa.gamma[i] - soa.beta[i] * soa.w2[i] -
         soa.alpha[i] * best_t) /
        (soa.beta[i] * soa.w1[i]);
    const double li =
        std::clamp(std::min(soa.capacity[i], thermal_cap), 0.0, rest);
    out.on[i] = true;
    out.loads[i] = li;
    if (li > 0.0) last = i;
    rest -= li;
  }
  out.loads[last] += rest;
  out.t_ac = best_t;
  out.finalize(model, soa);
  return true;
}

}  // namespace coolopt::core
