#include "core/class_selector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
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

/// Newton steps one k may take. Each step passes at least one breakpoint
/// of g_k, and a step from the previous k's time passes few.
constexpr int kMaxNewtonSteps = 64;

/// Predicted room power of a k-subset whose idle draws fold to `sum_w2_k`,
/// serving `load` at particle time `t_param`. The one power expression of
/// every query and of power_floor, so the floor's monotone-rounding
/// argument compares like with like.
double subset_power(const ParticleSystem& ps, const RoomModel& model,
                    double load, double sum_w2_k, double t_param) {
  const double t_ac = ps.w1 * t_param;
  return sum_w2_k + ps.w1 * load +
         model.cooler.predict(t_ac, sum_w2_k + ps.w1 * load);
}

/// The predicted power of a top-k fill with sums `p` and idle draw
/// `sum_w2_k` at this load; the clamped particle time lands in `t_param`.
double prefix_power(const ParticleSystem& ps, const RoomModel& model,
                    const ClassSelector::Prefix& p, double load,
                    double sum_w2_k, double& t_param) {
  const double t_subset = (p.a - load) / p.b;
  t_param = std::clamp(t_subset, ps.t_lo, ps.t_hi);
  return subset_power(ps, model, load, sum_w2_k, t_param);
}

/// A signed zero counts once: +0.0 and -0.0 coordinates are one class.
double canonical(double v) { return v == 0.0 ? 0.0 : v; }

}  // namespace

ClassSelector::ClassSelector(const ParticleSystem& ps) : t_lo_(ps.t_lo) {
  const size_t n = ps.size();
  // Classes: runs of machines whose (a, b) bits agree, found by sorting on
  // the bits with the id as tie-break, so each run lists ascending ids.
  const auto bits = [&](uint32_t i) {
    return std::pair{std::bit_cast<uint64_t>(canonical(ps.a[i])),
                     std::bit_cast<uint64_t>(ps.b[i])};
  };
  members_.resize(n);
  std::iota(members_.begin(), members_.end(), 0u);
  std::sort(members_.begin(), members_.end(), [&](uint32_t x, uint32_t y) {
    return std::pair{bits(x), x} < std::pair{bits(y), y};
  });
  class_of_.resize(n);
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t i = members_[r];
    if (r == 0 || bits(i) != bits(members_[r - 1])) {
      first_.push_back(r);
      a_.push_back(canonical(ps.a[i]));
      b_.push_back(ps.b[i]);
    }
    class_of_[i] = static_cast<uint32_t>(a_.size() - 1);
  }
  first_.push_back(static_cast<uint32_t>(n));

  // ps.w2 added k times from 0.0: the running idle-draw fold the k-scans
  // read, the same double at every query.
  w2_fold_.resize(n + 1);
  for (size_t k = 0; k < n; ++k) w2_fold_[k + 1] = w2_fold_[k] + ps.w2;

  // Every class in its order at t_lo: the fill the feasibility test walks,
  // and where each query's Newton search starts.
  lo_order_.resize(a_.size());
  std::iota(lo_order_.begin(), lo_order_.end(), 0u);
  std::sort(lo_order_.begin(), lo_order_.end(), [&](uint32_t c, uint32_t d) {
    const double xc = a_[c] - b_[c] * t_lo_;
    const double xd = a_[d] - b_[d] * t_lo_;
    if (xc != xd) return xc > xd;
    if (b_[c] != b_[d]) return b_[c] < b_[d];
    return a_[c] > a_[d];
  });
}

void ClassSelector::View::reset(const ClassSelector& sel) {
  admit(sel, nullptr, {});
}

void ClassSelector::View::reset(const ClassSelector& sel,
                                const std::vector<char>& active) {
  if (active.size() != sel.size()) {
    throw std::invalid_argument(
        "ClassSelector::View: the mask has one entry per machine");
  }
  sel_ = &sel;
  active_ = &active;
  count_.assign(sel.class_count(), 0);
  width_ = 0;
  for (size_t i = 0; i < active.size(); ++i) {
    if (active[i] == 0) continue;
    ++count_[sel.class_of_[i]];
    ++width_;
  }
  sel.rewind(*this);
}

void ClassSelector::View::reset(const ClassSelector& sel,
                                const std::vector<char>& active,
                                std::span<const size_t> excluded) {
  admit(sel, &active, excluded);
}

void ClassSelector::View::admit(const ClassSelector& sel,
                                const std::vector<char>* active,
                                std::span<const size_t> excluded) {
  sel_ = &sel;
  active_ = active;
  count_.resize(sel.class_count());
  for (size_t c = 0; c < count_.size(); ++c) {
    count_[c] = sel.first_[c + 1] - sel.first_[c];
  }
  for (const size_t i : excluded) --count_[sel.class_of_[i]];
  width_ = sel.size() - excluded.size();
  sel.rewind(*this);
}

ClassSelector::View& ClassSelector::view_or_local(View* view) const {
  if (view != nullptr) {
    if (view->sel_ != this) {
      throw std::invalid_argument(
          "ClassSelector: the view was reset for another selector");
    }
    return *view;
  }
  thread_local View local;
  local.reset(*this);
  return local;
}

void ClassSelector::rewind(View& v) const {
  v.order_.clear();
  for (const uint32_t c : lo_order_) {
    if (v.count_[c] != 0) {
      v.order_.push_back(View::Slot{0.0, a_[c], b_[c], c, v.count_[c]});
    }
  }
  v.t_ = t_lo_;
}

bool ClassSelector::sort_at(View& v, double t) const {
  if (t == v.t_) return false;
  std::vector<View::Slot>& o = v.order_;
  for (View::Slot& s : o) s.x = s.a - s.b * t;
  const auto before = [](const View::Slot& s, const View::Slot& u) {
    if (s.x != u.x) return s.x > u.x;
    if (s.b != u.b) return s.b < u.b;
    return s.a > u.a;
  };
  // An insertion sort from the order at the previous time moves each class
  // past the classes it crossed since; past a few moves per class, a full
  // sort is cheaper. The order is a strict total one (equal coordinates,
  // b and a are one class), so both leave the same sequence.
  const size_t budget = 4 * o.size() + 16;
  size_t moves = 0;
  for (size_t i = 1; i < o.size(); ++i) {
    if (!before(o[i], o[i - 1])) continue;
    const View::Slot s = o[i];
    size_t j = i;
    do {
      o[j] = o[j - 1];
      --j;
    } while (j > 0 && before(s, o[j - 1]));
    o[j] = s;
    moves += i - j;
    if (moves > budget) {
      std::sort(o.begin(), o.end(), before);
      break;
    }
  }
  v.t_ = t;
  return moves != 0;
}

ClassSelector::Prefix ClassSelector::top_k_sums(const View& v,
                                                size_t k) const {
  Prefix p;
  size_t left = k;
  for (const View::Slot& s : v.order_) {
    const size_t take = std::min<size_t>(s.count, left);
    p.a += static_cast<double>(take) * s.a;
    p.b += static_cast<double>(take) * s.b;
    left -= take;
    if (left == 0) break;
  }
  return p;
}

double ClassSelector::operate(const ParticleSystem& ps, double load, size_t k,
                              double t, View& v, Prefix& p) const {
  sort_at(v, t);
  p = top_k_sums(v, k);
  if (p.a - t * p.b < load) {
    // Right of the root. At t_lo the root lies below it, and the time
    // clamps there; elsewhere one step of the top-k line lands left of it.
    if (t <= ps.t_lo) return t;
    t = std::max(ps.t_lo, (p.a - load) / p.b);
    sort_at(v, t);
    p = top_k_sums(v, k);
    if (t == ps.t_lo && p.a - t * p.b < load) return t;
  }
  for (int step = 0; step < kMaxNewtonSteps; ++step) {
    const double root = (p.a - load) / p.b;
    if (!(root > t)) break;  // t is the root, to rounding
    if (root >= ps.t_hi) {
      t = ps.t_hi;
      sort_at(v, t);
      p = top_k_sums(v, k);
      break;
    }
    t = root;
    // An unchanged order draws the same line, whose root t then is.
    if (!sort_at(v, root)) break;
    const Prefix q = top_k_sums(v, k);
    const bool same_line = q.a == p.a && q.b == p.b;
    p = q;
    if (same_line) break;
  }
  return t;
}

template <typename Visit>
void ClassSelector::for_each_feasible_k(const ParticleSystem& ps, double load,
                                        View& v, Visit&& visit) const {
  rewind(v);
  // The fill at t_lo grows by one machine per k: the sums of the classes it
  // holds whole, and `taken` members of the class (a, b) it is filling,
  // which has `left` admitted members still out.
  const double need = load - kFeasEps;
  size_t pos = 0;
  uint32_t left = 0;
  uint32_t taken = 0;
  double a = 0.0;
  double b = 0.0;
  double full_a = 0.0;
  double full_b = 0.0;
  double t = ps.t_lo;  // the previous feasible k's operating time
  for (size_t k = 1; k <= v.width_; ++k) {
    while (left == 0) {
      full_a += static_cast<double>(taken) * a;
      full_b += static_cast<double>(taken) * b;
      const uint32_t c = lo_order_[pos++];
      left = v.count_[c];
      taken = 0;
      a = a_[c];
      b = b_[c];
    }
    --left;
    ++taken;
    const double lo_a = full_a + static_cast<double>(taken) * a;
    const double lo_b = full_b + static_cast<double>(taken) * b;
    // Even the coldest allowed air cannot serve this load on k machines.
    // (g_k decreases and t_lo >= 0, so no test at t = 0 is needed.)
    const bool feasible = lo_a - ps.t_lo * lo_b >= need;
    if (!visit(k, feasible, w2_fold_[k], t)) return;
  }
}

double ClassSelector::g(const ParticleSystem& /*ps*/, size_t k, double t,
                        View* view) const {
  View& v = view_or_local(view);
  sort_at(v, t);
  const Prefix p = top_k_sums(v, k);
  return p.a - t * p.b;
}

template <typename Visit>
void ClassSelector::for_top_k(const View& v, size_t k, Visit&& visit) const {
  size_t left = k;
  for (const View::Slot& s : v.order_) {
    const uint32_t* members = members_.data() + first_[s.cls];
    const size_t take = std::min<size_t>(s.count, left);
    if (s.count == first_[s.cls + 1] - first_[s.cls]) {
      visit(members, members + take);  // every member admitted
    } else {
      for (size_t r = 0, taken = 0; taken < take; ++r) {
        if ((*v.active_)[members[r]] == 0) continue;
        visit(members + r, members + r + 1);
        ++taken;
      }
    }
    left -= take;
    if (left == 0) break;
  }
}

void ClassSelector::top_k_into(double t, size_t k, std::vector<size_t>& out,
                               View* view) const {
  View& v = view_or_local(view);
  sort_at(v, t);
  out.clear();
  for_top_k(v, k, [&](const uint32_t* first, const uint32_t* last) {
    out.insert(out.end(), first, last);
  });
}

void ClassSelector::make_choice_into(const ParticleSystem& ps,
                                     const RoomModel& model, double t,
                                     size_t k, double load,
                                     ConsolidationChoice& out,
                                     View* view) const {
  View& v = view_or_local(view);
  top_k_into(t, k, out.on_set, &v);
  out.k = k;
  double sum_w2 = 0.0;
  for (const size_t id : out.on_set) sum_w2 += model.machines[id].power.w2;
  out.predicted_total_power_w =
      prefix_power(ps, model, top_k_sums(v, k), load, sum_w2, out.t_param);
  out.t_ac = ps.w1 * out.t_param;
}

double ClassSelector::power_floor(const ParticleSystem& ps,
                                  const RoomModel& model, double load,
                                  double sum_w2_k) {
  // A negative q_coeff makes the cooler cheaper as the idle draw grows, so
  // the bound would not hold across k; prune nothing.
  if (!(model.cooler.q_coeff >= 0.0)) return -HUGE_VAL;
  // std::clamp(t, t_lo, t_hi) never exceeds max(t_lo, t_hi) (== t_hi in
  // any room with t_ac_max >= 0), the warmest air any k may run at.
  return subset_power(ps, model, load, sum_w2_k, std::max(ps.t_lo, ps.t_hi));
}

bool ClassSelector::scan_head(const ParticleSystem& ps, const RoomModel& model,
                              double load, Head& out, View* view) const {
  View& v = view_or_local(view);
  out = Head{};
  // Ascending k with strict < reproduces the ranking's (power, k) order.
  for_each_feasible_k(ps, load, v, [&](size_t k, bool feasible,
                                       double sum_w2_k, double& t) {
    // No k from here on can displace the winner or the runner-up.
    if (out.has_runner_up &&
        power_floor(ps, model, load, sum_w2_k) >= out.runner_up_power) {
      return false;
    }
    if (!feasible) return true;
    Prefix p;
    t = operate(ps, load, k, t, v, p);
    double t_param = 0.0;
    const double power = prefix_power(ps, model, p, load, sum_w2_k, t_param);
    if (out.k == 0 || power < out.power) {
      if (out.k != 0) {
        out.runner_up_power = out.power;
        out.has_runner_up = true;
      }
      out.k = k;
      out.t = t;
      out.power = power;
    } else if (!out.has_runner_up || power < out.runner_up_power) {
      out.runner_up_power = power;
      out.has_runner_up = true;
    }
    return true;
  });
  return out.k != 0;
}

bool ClassSelector::query_best_into(const ParticleSystem& ps,
                                    const RoomModel& model, double load,
                                    ConsolidationChoice& out,
                                    View* view) const {
  View& v = view_or_local(view);
  Head head;
  if (!scan_head(ps, model, load, head, &v)) return false;
  make_choice_into(ps, model, head.t, head.k, load, out, &v);
  return true;
}

void ClassSelector::rank_all_k_into(const ParticleSystem& ps,
                                    const RoomModel& model, double load,
                                    std::vector<RankEntry>& out,
                                    View* view) const {
  View& v = view_or_local(view);
  out.clear();
  out.reserve(v.width_);
  for_each_feasible_k(ps, load, v, [&](size_t k, bool feasible,
                                       double sum_w2_k, double& t) {
    if (!feasible) return true;
    Prefix p;
    t = operate(ps, load, k, t, v, p);
    double sum_w2 = sum_w2_k;  // the running fold scan_head reads
    if (!ps.w2_identical) {
      sum_w2 = 0.0;
      for_top_k(v, k, [&](const uint32_t* first, const uint32_t* last) {
        for (const uint32_t* id = first; id != last; ++id) {
          sum_w2 += model.machines[*id].power.w2;
        }
      });
    }
    double t_param = 0.0;
    out.push_back(
        RankEntry{k, t, prefix_power(ps, model, p, load, sum_w2, t_param)});
    return true;
  });
  std::sort(out.begin(), out.end(), [](const RankEntry& x, const RankEntry& y) {
    if (x.predicted_total_power_w != y.predicted_total_power_w) {
      return x.predicted_total_power_w < y.predicted_total_power_w;
    }
    return x.k < y.k;
  });
}

double ClassSelector::max_load_for_budget(const ParticleSystem& ps,
                                          const RoomModel& model,
                                          double power_budget_w, size_t k,
                                          View* view) const {
  View& v = view_or_local(view);
  if (k == 0 || k > v.width_) {
    throw std::invalid_argument("max_load_for_budget: bad k");
  }
  // g_k(t_lo), the most k machines can serve: the feasibility bound of
  // every load below, and the bisection's upper end.
  const double most = g(ps, k, ps.t_lo, &v);
  // Each load's Newton search starts at the previous load's operating time
  // (operate() reaches the root from either side). The power is
  // make_choice_into's: with a uniform w2 its machine-by-machine idle sum
  // is the running fold, so no subset is materialized.
  double t = ps.t_lo;
  ConsolidationChoice choice;
  const auto power_at = [&](double load) -> std::optional<double> {
    if (most < load - kFeasEps) return std::nullopt;
    Prefix p;
    t = operate(ps, load, k, t, v, p);
    if (ps.w2_identical) {
      double t_param = 0.0;
      return prefix_power(ps, model, p, load, w2_fold_[k], t_param);
    }
    make_choice_into(ps, model, t, k, load, choice, &v);
    return choice.predicted_total_power_w;
  };
  const auto p0 = power_at(0.0);
  if (!p0 || *p0 > power_budget_w) return 0.0;

  // Predicted power is monotone non-decreasing in load for fixed k, so the
  // budget frontier is found by bisection on [0, g_k(t_lo)].
  double lo = 0.0;
  double hi = most;
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
