#include "core/consolidation_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace coolopt::core {

ParticleSystem ParticleSystem::from_model(const RoomModel& model) {
  model.validate();
  return from_model(model, kPreValidated);
}

ParticleSystem ParticleSystem::from_model(const RoomModel& model, PreValidated) {
  if (!model.uniform_w1() || !model.uniform_w2()) {
    throw std::invalid_argument(
        "consolidation: the Eq. 23 reduction assumes uniform w1/w2 across "
        "machines (one fitted PowerModel per fleet, as in the paper)");
  }
  ParticleSystem ps;
  ps.w1 = model.machines.front().power.w1;
  ps.w2 = model.machines.front().power.w2;
  ps.w2_identical = std::all_of(
      model.machines.begin(), model.machines.end(),
      [&](const MachineModel& m) { return m.power.w2 == ps.w2; });
  ps.a.reserve(model.size());
  ps.b.reserve(model.size());
  for (const MachineModel& m : model.machines) {
    ps.a.push_back(m.k_constant(model.t_max));
    ps.b.push_back(m.ab_ratio());
  }
  ps.t_lo = std::max(0.0, model.t_ac_min / ps.w1);
  ps.t_hi = model.t_ac_max / ps.w1;
  return ps;
}

namespace detail {

namespace {

/// Predicted room power of a k-subset whose idle draws fold to `sum_w2_k`,
/// serving `load` at particle time `t_param`. The one power expression of
/// make_choice_into, peek_k and power_floor, so the floor's monotone-
/// rounding argument compares like with like.
double subset_power(const ParticleSystem& ps, const RoomModel& model,
                    double load, double sum_w2_k, double t_param) {
  const double t_ac = ps.w1 * t_param;
  return sum_w2_k + ps.w1 * load +
         model.cooler.predict(t_ac, sum_w2_k + ps.w1 * load);
}

/// The idle draw of the top k of `order`, summed machine by machine.
double top_k_w2(const RoomModel& model, const std::vector<uint32_t>& order,
                size_t k) {
  double sum_w2 = 0.0;
  for (size_t j = 0; j < k; ++j) {
    sum_w2 += model.machines[order[j]].power.w2;
  }
  return sum_w2;
}

/// The predicted power of a top-k prefix with prefix sums `p` and idle
/// draw `sum_w2_k` at this load; the clamped particle time lands in
/// `t_param`.
double prefix_power(const ParticleSystem& ps, const RoomModel& model,
                    const ConsolidationTable::Prefix& p, double load,
                    double sum_w2_k, double& t_param) {
  const double t_subset = (p.a - load) / p.b;
  t_param = std::clamp(t_subset, ps.t_lo, ps.t_hi);
  return subset_power(ps, model, load, sum_w2_k, t_param);
}

}  // namespace

void ConsolidationTable::build(const ParticleSystem& ps,
                               const std::vector<uint32_t>& ids,
                               const std::vector<double>& collapsed_events) {
  events = collapsed_events;
  segments.clear();
  const size_t n = ids.size();

  // One segment per inter-event interval, [0, e1), [e1, e2), ..., [em, inf).
  // Within a segment the coordinate order is constant. Sorting at the
  // segment *start* would compare the just-crossed pair at the instant
  // their coordinates coincide, where floating-point noise (not the
  // tie-break) decides who is ahead; sorting at the segment midpoint keeps
  // every pair robustly separated.
  std::vector<double> starts;
  starts.push_back(0.0);
  starts.insert(starts.end(), events.begin(), events.end());

  segments.reserve(starts.size());
  for (size_t s = 0; s < starts.size(); ++s) {
    const double start = starts[s];
    Segment seg;
    seg.start = start;
    seg.order_time =
        s + 1 < starts.size() ? 0.5 * (start + starts[s + 1]) : start + 1.0;
    seg.order = ids;
    std::sort(seg.order.begin(), seg.order.end(), [&](uint32_t x, uint32_t y) {
      const double cx = ps.coordinate(x, seg.order_time);
      const double cy = ps.coordinate(y, seg.order_time);
      if (cx != cy) return cx > cy;
      return x < y;  // identical particles: stable by id
    });
    seg.prefix_a.assign(n + 1, 0.0);
    seg.prefix_b.assign(n + 1, 0.0);
    refold(ps, seg);
    segments.push_back(std::move(seg));
  }
}

void ConsolidationTable::refold(const ParticleSystem& ps, const Segment& seg) {
  const size_t n = seg.order.size();
  double* pa = seg.prefix_a.data();
  double* pb = seg.prefix_b.data();
  double sum_a = pa[seg.folded];
  double sum_b = pb[seg.folded];
  for (size_t k = seg.folded; k < n; ++k) {
    const uint32_t id = seg.order[k];
    sum_a += ps.a[id];
    sum_b += ps.b[id];
    pa[k + 1] = sum_a;
    pb[k + 1] = sum_b;
  }
  seg.folded = n;
}

void ConsolidationTable::apply_membership_delta(
    const ParticleSystem& ps, const std::vector<uint32_t>& removed,
    const std::vector<uint32_t>& added) {
  for (Segment& seg : segments) {
    // The order is the unique sequence sorted by (coordinate descending,
    // id ascending), so an id's lower bound under that comparator is where
    // it sits (removal) or where a full re-sort would put it (insertion).
    const auto before = [&](uint32_t x, uint32_t y) {
      const double cx = ps.coordinate(x, seg.order_time);
      const double cy = ps.coordinate(y, seg.order_time);
      if (cx != cy) return cx > cy;
      return x < y;
    };
    size_t first = seg.order.size();
    for (const uint32_t id : removed) {
      const auto pos =
          std::lower_bound(seg.order.begin(), seg.order.end(), id, before);
      if (pos == seg.order.end() || *pos != id) {
        throw std::logic_error(
            "ConsolidationTable: removed particle is not at its sorted "
            "position (delta drifted from the table)");
      }
      first = std::min(first, static_cast<size_t>(pos - seg.order.begin()));
      seg.order.erase(pos);
    }
    for (const uint32_t id : added) {
      const auto pos =
          std::lower_bound(seg.order.begin(), seg.order.end(), id, before);
      first = std::min(first, static_cast<size_t>(pos - seg.order.begin()));
      seg.order.insert(pos, id);
    }
    // Positions below `first` hold the same particles as before, so their
    // prefix sums already are the rebuild's. The tail stays stale until
    // prefix() reads it; an earlier delta's unread tail may start lower.
    seg.folded = std::min(seg.folded, first);
    seg.prefix_a.resize(seg.order.size() + 1);
    seg.prefix_b.resize(seg.order.size() + 1);
  }
}

size_t ConsolidationTable::segment_at(double t) const {
  // Last segment whose start <= t; t < 0 maps to the first segment.
  size_t lo = 0;
  size_t hi = segments.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (segments[mid].start <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ConsolidationTable::make_choice_into(const ParticleSystem& ps,
                                          const RoomModel& model,
                                          size_t segment, size_t k, double load,
                                          ConsolidationChoice& out) const {
  const std::vector<uint32_t>& order = segments[segment].order;
  out.k = k;
  out.segment = segment;
  out.on_set.assign(order.begin(), order.begin() + static_cast<long>(k));
  out.predicted_total_power_w =
      prefix_power(ps, model, prefix(ps, segment, k), load,
                   top_k_w2(model, order, k), out.t_param);
  out.t_ac = ps.w1 * out.t_param;
}

bool ConsolidationTable::feasible_k(const ParticleSystem& ps,
                                    const Anchors& at, double load, size_t k,
                                    size_t& segment) const {
  if (k == 0 || k > width()) return false;
  // Even the coldest allowed air cannot serve this load on k machines.
  if (g_in(ps, at.lo, k, ps.t_lo) < load - kFeasEps) return false;
  // Load not servable even at t = 0; only possible when t_lo < 0 is
  // clamped to 0 and the check above used the same t — unreachable, but
  // keep the guard for safety.
  if (g_in(ps, at.zero, k, 0.0) < load - kFeasEps) return false;
  segment = operating_segment(ps, load, k);
  return true;
}

bool ConsolidationTable::peek_k(const ParticleSystem& ps,
                                const RoomModel& model, const Anchors& at,
                                double load, size_t k, double sum_w2_k,
                                size_t* segment_out, double* power_out) const {
  // make_choice_into's arithmetic, with the iterated machine-by-machine w2
  // sum replaced by the caller's precomputed fold (identical double when
  // w2 is bitwise-uniform).
  size_t s = 0;
  if (!feasible_k(ps, at, load, k, s)) return false;
  double t_param = 0.0;
  *segment_out = s;
  *power_out =
      prefix_power(ps, model, prefix(ps, s, k), load, sum_w2_k, t_param);
  return true;
}

double ConsolidationTable::power_floor(const ParticleSystem& ps,
                                       const RoomModel& model, double load,
                                       double sum_w2_k) {
  // A negative q_coeff makes the cooler cheaper as the idle draw grows, so
  // the bound would not hold across k; prune nothing.
  if (!(model.cooler.q_coeff >= 0.0)) return -HUGE_VAL;
  // std::clamp(t, t_lo, t_hi) never exceeds max(t_lo, t_hi) (== t_hi in
  // any room with t_ac_max >= 0), the warmest air any k may run at.
  return subset_power(ps, model, load, sum_w2_k, std::max(ps.t_lo, ps.t_hi));
}

size_t ConsolidationTable::operating_segment(const ParticleSystem& ps,
                                             double load, size_t k) const {
  // Find where g_k crosses the load. g_k is continuous, piecewise linear
  // and strictly decreasing, and within each segment equals
  // prefix_a[k] - t * prefix_b[k] of that segment's order.
  // Binary search: last segment whose start-value is still >= load, over
  // [lo, lo + count). Kept in this lo/count form: with the (lo, hi) form
  // and prefix()'s refold branch in the body, GCC turns the comparison
  // into conditional moves, which serialize the search on its loads
  // (2-3x slower on a 30,000-segment table).
  size_t lo = 0;
  size_t count = segments.size();
  while (count > 1) {
    const size_t half = count / 2;
    if (g_in(ps, lo + half, k, segments[lo + half].start) >= load) {
      lo += half;
      count -= half;
    } else {
      count = half;
    }
  }
  const Prefix p = prefix(ps, lo, k);
  double t_star = (p.a - load) / p.b;
  // Numeric safety at boundaries.
  t_star = std::max(t_star, segments[lo].start);

  const double t_used = std::clamp(t_star, ps.t_lo, ps.t_hi);
  // Operate in the segment containing the (possibly clamped) time: when the
  // room runs warmer than t_star (clamped at t_hi), the headroom-maximizing
  // top-k set at the operating time is the right pick.
  return segment_at(t_used);
}

std::optional<ConsolidationChoice> ConsolidationTable::solve_for_k(
    const ParticleSystem& ps, const RoomModel& model, double load,
    size_t k) const {
  size_t s = 0;
  if (!feasible_k(ps, anchors(ps), load, k, s)) return std::nullopt;
  ConsolidationChoice choice;
  make_choice_into(ps, model, s, k, load, choice);
  return choice;
}

bool ConsolidationTable::scan_head(const ParticleSystem& ps,
                                   const RoomModel& model, double load,
                                   Head& out) const {
  // Ascending k with strict < reproduces the ranking's (power, k) order.
  const Anchors at = anchors(ps);
  out = Head{};
  double sum_w2_k = 0.0;
  for (size_t k = 1; k <= width(); ++k) {
    sum_w2_k += ps.w2;
    // No k from here on can displace the winner or the runner-up.
    if (out.has_runner_up &&
        power_floor(ps, model, load, sum_w2_k) >= out.runner_up_power) {
      break;
    }
    size_t s = 0;
    double power = 0.0;
    if (!peek_k(ps, model, at, load, k, sum_w2_k, &s, &power)) continue;
    if (out.k == 0 || power < out.power) {
      if (out.k != 0) {
        out.runner_up_power = out.power;
        out.has_runner_up = true;
      }
      out.k = k;
      out.segment = s;
      out.power = power;
    } else if (!out.has_runner_up || power < out.runner_up_power) {
      out.runner_up_power = power;
      out.has_runner_up = true;
    }
  }
  return out.k != 0;
}

bool ConsolidationTable::query_best_into(const ParticleSystem& ps,
                                         const RoomModel& model, double load,
                                         ConsolidationChoice& out) const {
  Head head;
  if (!scan_head(ps, model, load, head)) return false;
  make_choice_into(ps, model, head.segment, head.k, load, out);
  return true;
}

void ConsolidationTable::rank_all_k_into(const ParticleSystem& ps,
                                         const RoomModel& model, double load,
                                         std::vector<RankEntry>& out) const {
  const Anchors at = anchors(ps);
  out.clear();
  out.reserve(width());
  double sum_w2_k = 0.0;  // scan_head's running fold
  for (size_t k = 1; k <= width(); ++k) {
    sum_w2_k += ps.w2;
    size_t s = 0;
    if (!feasible_k(ps, at, load, k, s)) continue;
    const double sum_w2 =
        ps.w2_identical ? sum_w2_k : top_k_w2(model, segments[s].order, k);
    double t_param = 0.0;
    const double power =
        prefix_power(ps, model, prefix(ps, s, k), load, sum_w2, t_param);
    out.push_back(RankEntry{k, s, power});
  }
  std::sort(out.begin(), out.end(), [](const RankEntry& x, const RankEntry& y) {
    if (x.predicted_total_power_w != y.predicted_total_power_w) {
      return x.predicted_total_power_w < y.predicted_total_power_w;
    }
    return x.k < y.k;
  });
}

double ConsolidationTable::max_load_for_budget(const ParticleSystem& ps,
                                               const RoomModel& model,
                                               double power_budget_w,
                                               size_t k) const {
  if (k == 0 || k > width()) {
    throw std::invalid_argument("max_load_for_budget: bad k");
  }
  const auto power_at = [&](double load) -> std::optional<double> {
    const auto c = solve_for_k(ps, model, load, k);
    if (!c) return std::nullopt;
    return c->predicted_total_power_w;
  };
  const auto p0 = power_at(0.0);
  if (!p0 || *p0 > power_budget_w) return 0.0;

  // Predicted power is monotone non-decreasing in load for fixed k, so the
  // budget frontier is found by bisection on [0, g_k(t_lo)].
  double lo = 0.0;
  double hi = g(ps, k, ps.t_lo);
  if (hi <= 0.0) return 0.0;
  const auto p_hi = power_at(hi);
  if (p_hi && *p_hi <= power_budget_w) return hi;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const auto p = power_at(mid);
    if (p && *p <= power_budget_w) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail
}  // namespace coolopt::core
