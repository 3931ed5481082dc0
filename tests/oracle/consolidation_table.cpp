#include "tests/oracle/consolidation_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace coolopt::core {

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
    for (size_t k = 0; k < n; ++k) {
      const uint32_t id = seg.order[k];
      seg.prefix_a[k + 1] = seg.prefix_a[k] + ps.a[id];
      seg.prefix_b[k + 1] = seg.prefix_b[k] + ps.b[id];
    }
    segments.push_back(std::move(seg));
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

void ConsolidationTable::top_k_into(double t, size_t k,
                                    std::vector<size_t>& out) const {
  const std::vector<uint32_t>& order = segments[segment_at(t)].order;
  out.assign(order.begin(), order.begin() + static_cast<long>(k));
}

bool ConsolidationTable::feasible_k(const ParticleSystem& ps, double load,
                                    size_t k, double& t) const {
  if (k == 0 || k > width()) return false;
  // Even the coldest allowed air cannot serve this load on k machines.
  if (g(k, ps.t_lo) < load - detail::kFeasEps) return false;
  if (g(k, 0.0) < load - detail::kFeasEps) return false;
  // g_k is continuous, piecewise linear and strictly decreasing, and within
  // each segment equals prefix_a[k] - t * prefix_b[k] of that segment's
  // order: the last segment whose start-value still covers the load holds
  // the root.
  size_t lo = 0;
  size_t count = segments.size();
  while (count > 1) {
    const size_t half = count / 2;
    const Prefix p = prefix(lo + half, k);
    if (p.a - segments[lo + half].start * p.b >= load) {
      lo += half;
      count -= half;
    } else {
      count = half;
    }
  }
  const Prefix p = prefix(lo, k);
  const double t_star = std::max((p.a - load) / p.b, segments[lo].start);
  t = std::clamp(t_star, ps.t_lo, ps.t_hi);
  return true;
}

double ConsolidationTable::power_of(const ParticleSystem& ps,
                                    const RoomModel& model, size_t s,
                                    size_t k, double load, double sum_w2,
                                    double& t_param) const {
  const Prefix p = prefix(s, k);
  t_param = std::clamp((p.a - load) / p.b, ps.t_lo, ps.t_hi);
  const double t_ac = ps.w1 * t_param;
  return sum_w2 + ps.w1 * load +
         model.cooler.predict(t_ac, sum_w2 + ps.w1 * load);
}

bool ConsolidationTable::scan_head(const ParticleSystem& ps,
                                   const RoomModel& model, double load,
                                   Head& out) const {
  out = Head{};
  double sum_w2_k = 0.0;
  for (size_t k = 1; k <= width(); ++k) {
    sum_w2_k += ps.w2;
    if (out.has_runner_up &&
        detail::ClassSelector::power_floor(ps, model, load, sum_w2_k) >=
            out.runner_up_power) {
      break;
    }
    double t = 0.0;
    if (!feasible_k(ps, load, k, t)) continue;
    double t_param = 0.0;
    const size_t s = segment_at(t);
    const double power = power_of(ps, model, s, k, load, sum_w2_k, t_param);
    if (out.k == 0 || power < out.power) {
      if (out.k != 0) {
        out.runner_up_power = out.power;
        out.has_runner_up = true;
      }
      out.k = k;
      out.segment = s;
      out.t = t;
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
  make_choice_into(ps, model, head.t, head.k, load, out);
  return true;
}

void ConsolidationTable::make_choice_into(const ParticleSystem& ps,
                                          const RoomModel& model, double t,
                                          size_t k, double load,
                                          ConsolidationChoice& out) const {
  out.k = k;
  top_k_into(t, k, out.on_set);
  double sum_w2 = 0.0;
  for (const size_t id : out.on_set) sum_w2 += model.machines[id].power.w2;
  out.predicted_total_power_w =
      power_of(ps, model, segment_at(t), k, load, sum_w2, out.t_param);
  out.t_ac = ps.w1 * out.t_param;
}

void ConsolidationTable::rank_all_k_into(const ParticleSystem& ps,
                                         const RoomModel& model, double load,
                                         std::vector<RankEntry>& out) const {
  out.clear();
  double sum_w2_k = 0.0;
  std::vector<size_t> subset;
  for (size_t k = 1; k <= width(); ++k) {
    sum_w2_k += ps.w2;
    double t = 0.0;
    if (!feasible_k(ps, load, k, t)) continue;
    double sum_w2 = sum_w2_k;
    if (!ps.w2_identical) {
      top_k_into(t, k, subset);
      sum_w2 = 0.0;
      for (const size_t id : subset) sum_w2 += model.machines[id].power.w2;
    }
    double t_param = 0.0;
    out.push_back(RankEntry{
        k, t, power_of(ps, model, segment_at(t), k, load, sum_w2, t_param)});
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
  ConsolidationChoice choice;
  const auto power_at = [&](double load) -> std::optional<double> {
    double t = 0.0;
    if (!feasible_k(ps, load, k, t)) return std::nullopt;
    make_choice_into(ps, model, t, k, load, choice);
    return choice.predicted_total_power_w;
  };
  const auto p0 = power_at(0.0);
  if (!p0 || *p0 > power_budget_w) return 0.0;
  double lo = 0.0;
  double hi = g(k, ps.t_lo);
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

}  // namespace coolopt::core
