#include "core/consolidation_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

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

/// Calls visit(id) for the first k ids of `order` whose byte in `active`
/// is non-zero (the first k ids when `active` is null).
template <typename Visit>
void for_top_k(const std::vector<uint32_t>& order, size_t k,
               const std::vector<char>* active, Visit&& visit) {
  for (size_t j = 0, taken = 0; taken < k; ++j) {
    const uint32_t id = order[j];
    if (active != nullptr && (*active)[id] == 0) continue;
    visit(id);
    ++taken;
  }
}

/// The idle draw of the top k of `order` (of its admitted ids under
/// `active`), summed machine by machine.
double top_k_w2(const RoomModel& model, const std::vector<uint32_t>& order,
                size_t k, const std::vector<char>* active) {
  double sum_w2 = 0.0;
  for_top_k(order, k, active,
            [&](uint32_t id) { sum_w2 += model.machines[id].power.w2; });
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
    for (size_t k = 0; k < n; ++k) {
      const uint32_t id = seg.order[k];
      seg.prefix_a[k + 1] = seg.prefix_a[k] + ps.a[id];
      seg.prefix_b[k + 1] = seg.prefix_b[k] + ps.b[id];
    }
    segments.push_back(std::move(seg));
  }
}

void ConsolidationTable::Mask::reset(const ConsolidationTable& table,
                                     const std::vector<char>& active) {
  if (active.size() != table.width()) {
    throw std::invalid_argument(
        "ConsolidationTable::Mask: the mask has one entry per particle, and "
        "the table must cover every particle");
  }
  active_ = &active;
  ++pass_;
  if (cursors_.size() < table.segments.size()) {
    cursors_.resize(table.segments.size());
  }
  width_ = static_cast<size_t>(std::count_if(
      active.begin(), active.end(), [](char c) { return c != 0; }));
}

ConsolidationTable::Prefix ConsolidationTable::masked_prefix(
    const ParticleSystem& ps, size_t s, size_t k, Mask& mask) const {
  Mask::Cursor& c = mask.cursors_[s];
  if (c.pass != mask.pass_ || k < c.count) c = Mask::Cursor{mask.pass_};
  const Segment& seg = segments[s];
  const std::vector<uint32_t>& order = seg.order;
  const char* active = mask.active_->data();
  size_t pos = c.pos;
  size_t count = c.count;
  double sum_a = c.a;
  double sum_b = c.b;
  if (count == pos) {
    // No id skipped yet: up to the first masked one, the fold is build()'s
    // own, so its prefix sums are read instead of re-added.
    while (pos < k && active[order[pos]] != 0) ++pos;
    count = pos;
    sum_a = seg.prefix_a[pos];
    sum_b = seg.prefix_b[pos];
  }
  // build()'s left-to-right adds over the admitted ids, the running sums
  // carried in registers.
  while (count < k) {
    const uint32_t id = order[pos++];
    if (active[id] == 0) continue;
    sum_a += ps.a[id];
    sum_b += ps.b[id];
    ++count;
  }
  c = Mask::Cursor{mask.pass_, pos, count, sum_a, sum_b};
  return Prefix{sum_a, sum_b};
}

void ConsolidationTable::top_k_into(size_t s, size_t k,
                                    std::vector<size_t>& out,
                                    const Mask* mask) const {
  const std::vector<uint32_t>& order = segments[s].order;
  if (mask == nullptr) {
    out.assign(order.begin(), order.begin() + static_cast<long>(k));
    return;
  }
  out.clear();
  for_top_k(order, k, mask->active_, [&](uint32_t id) { out.push_back(id); });
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
                                          ConsolidationChoice& out,
                                          const Mask* mask) const {
  out.k = k;
  out.segment = segment;
  top_k_into(segment, k, out.on_set, mask);
  // One pass over the subset for its idle draw and its prefix sums, the
  // latter with build()'s left-to-right adds, so no cursor is read.
  double sum_w2 = 0.0;
  Prefix p;
  for (const size_t id : out.on_set) {
    sum_w2 += model.machines[id].power.w2;
    p.a += ps.a[id];
    p.b += ps.b[id];
  }
  out.predicted_total_power_w =
      prefix_power(ps, model, p, load, sum_w2, out.t_param);
  out.t_ac = ps.w1 * out.t_param;
}

bool ConsolidationTable::feasible_k(const ParticleSystem& ps,
                                    const Anchors& at, double load, size_t k,
                                    size_t& segment, Mask* mask) const {
  if (k == 0 || k > width(mask)) return false;
  // Even the coldest allowed air cannot serve this load on k machines.
  if (g_in(ps, at.lo, k, ps.t_lo, mask) < load - kFeasEps) return false;
  // Load not servable even at t = 0; only possible when t_lo < 0 is
  // clamped to 0 and the check above used the same t — unreachable, but
  // keep the guard for safety.
  if (g_in(ps, at.zero, k, 0.0, mask) < load - kFeasEps) return false;
  segment = operating_segment(ps, load, k, mask);
  return true;
}

bool ConsolidationTable::peek_k(const ParticleSystem& ps,
                                const RoomModel& model, const Anchors& at,
                                double load, size_t k, double sum_w2_k,
                                size_t* segment_out, double* power_out,
                                Mask* mask) const {
  // make_choice_into's arithmetic, with the iterated machine-by-machine w2
  // sum replaced by the caller's precomputed fold (identical double when
  // w2 is bitwise-uniform).
  size_t s = 0;
  if (!feasible_k(ps, at, load, k, s, mask)) return false;
  double t_param = 0.0;
  *segment_out = s;
  *power_out = prefix_power(ps, model, prefix(ps, s, k, mask), load,
                            sum_w2_k, t_param);
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
                                             double load, size_t k,
                                             Mask* mask) const {
  // Find where g_k crosses the load. g_k is continuous, piecewise linear
  // and strictly decreasing, and within each segment equals
  // prefix_a[k] - t * prefix_b[k] of that segment's order.
  // Binary search: last segment whose start-value is still >= load, over
  // [lo, lo + count). Kept in this lo/count form: with the (lo, hi) form
  // and a branch in the prefix read (the former refold check), GCC turned
  // the comparison into conditional moves, which serialize the search on
  // its loads (2-3x slower on a 30,000-segment table).
  size_t lo = 0;
  size_t count = segments.size();
  while (count > 1) {
    const size_t half = count / 2;
    if (g_in(ps, lo + half, k, segments[lo + half].start, mask) >= load) {
      lo += half;
      count -= half;
    } else {
      count = half;
    }
  }
  const Prefix p = prefix(ps, lo, k, mask);
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
    const ParticleSystem& ps, const RoomModel& model, double load, size_t k,
    Mask* mask) const {
  size_t s = 0;
  if (!feasible_k(ps, anchors(ps), load, k, s, mask)) return std::nullopt;
  ConsolidationChoice choice;
  make_choice_into(ps, model, s, k, load, choice, mask);
  return choice;
}

bool ConsolidationTable::scan_head(const ParticleSystem& ps,
                                   const RoomModel& model, double load,
                                   Head& out, Mask* mask) const {
  // Ascending k with strict < reproduces the ranking's (power, k) order.
  const Anchors at = anchors(ps);
  out = Head{};
  double sum_w2_k = 0.0;
  const size_t n = width(mask);
  for (size_t k = 1; k <= n; ++k) {
    sum_w2_k += ps.w2;
    // No k from here on can displace the winner or the runner-up.
    if (out.has_runner_up &&
        power_floor(ps, model, load, sum_w2_k) >= out.runner_up_power) {
      break;
    }
    size_t s = 0;
    double power = 0.0;
    if (!peek_k(ps, model, at, load, k, sum_w2_k, &s, &power, mask)) continue;
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
                                         ConsolidationChoice& out,
                                         Mask* mask) const {
  Head head;
  if (!scan_head(ps, model, load, head, mask)) return false;
  make_choice_into(ps, model, head.segment, head.k, load, out, mask);
  return true;
}

void ConsolidationTable::rank_all_k_into(const ParticleSystem& ps,
                                         const RoomModel& model, double load,
                                         std::vector<RankEntry>& out,
                                         Mask* mask) const {
  const Anchors at = anchors(ps);
  const size_t n = width(mask);
  out.clear();
  out.reserve(n);
  double sum_w2_k = 0.0;  // scan_head's running fold
  for (size_t k = 1; k <= n; ++k) {
    sum_w2_k += ps.w2;
    size_t s = 0;
    if (!feasible_k(ps, at, load, k, s, mask)) continue;
    const double sum_w2 =
        ps.w2_identical
            ? sum_w2_k
            : top_k_w2(model, segments[s].order, k,
                       mask != nullptr ? mask->active_ : nullptr);
    double t_param = 0.0;
    const double power = prefix_power(ps, model, prefix(ps, s, k, mask), load,
                                      sum_w2, t_param);
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
                                               size_t k, Mask* mask) const {
  if (k == 0 || k > width(mask)) {
    throw std::invalid_argument("max_load_for_budget: bad k");
  }
  const auto power_at = [&](double load) -> std::optional<double> {
    const auto c = solve_for_k(ps, model, load, k, mask);
    if (!c) return std::nullopt;
    return c->predicted_total_power_w;
  };
  const auto p0 = power_at(0.0);
  if (!p0 || *p0 > power_budget_w) return 0.0;

  // Predicted power is monotone non-decreasing in load for fixed k, so the
  // budget frontier is found by bisection on [0, g_k(t_lo)].
  double lo = 0.0;
  double hi = g(ps, k, ps.t_lo, mask);
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
