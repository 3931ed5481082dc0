#include "tests/oracle/consolidation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace coolopt::core {
namespace {

constexpr double kFeasEps = detail::kFeasEps;

}  // namespace

std::optional<ConsolidationChoice> evaluate_consolidation_subset(
    const RoomModel& model, const std::vector<size_t>& subset, double load) {
  if (subset.empty()) {
    throw std::invalid_argument("evaluate_consolidation_subset: empty subset");
  }
  const ParticleSystem ps = ParticleSystem::from_model(model);
  double sum_a = 0.0;
  double sum_b = 0.0;
  double sum_w2 = 0.0;
  for (const size_t i : subset) {
    if (i >= ps.size()) {
      throw std::invalid_argument("evaluate_consolidation_subset: bad index");
    }
    sum_a += ps.a[i];
    sum_b += ps.b[i];
    sum_w2 += model.machines[i].power.w2;
  }
  const double t_subset = (sum_a - load) / sum_b;
  if (t_subset < ps.t_lo - kFeasEps) return std::nullopt;

  ConsolidationChoice choice;
  choice.on_set = subset;
  choice.k = subset.size();
  choice.t_param = std::clamp(t_subset, ps.t_lo, ps.t_hi);
  choice.t_ac = ps.w1 * choice.t_param;
  choice.predicted_total_power_w =
      sum_w2 + ps.w1 * load +
      model.cooler.predict(choice.t_ac, sum_w2 + ps.w1 * load);
  return choice;
}

std::vector<PaperStatus> all_status(const detail::ConsolidationTable& table,
                                    const ParticleSystem& ps) {
  const uint32_t n = static_cast<uint32_t>(table.width());
  std::vector<PaperStatus> statuses;
  statuses.reserve(table.segments.size() * n);
  for (uint32_t s = 0; s < table.segments.size(); ++s) {
    const double start = table.segments[s].start;
    for (uint32_t k = 1; k <= n; ++k) {
      const detail::ConsolidationTable::Prefix p = table.prefix(ps, s, k);
      statuses.push_back(PaperStatus{p.a - start * p.b, s, k});
    }
  }
  std::sort(statuses.begin(), statuses.end(),
            [](const PaperStatus& x, const PaperStatus& y) {
              return x.l_max < y.l_max;
            });
  return statuses;
}

std::optional<ConsolidationChoice> query_paper(
    const detail::ConsolidationTable& table, const ParticleSystem& ps,
    const RoomModel& model, const std::vector<PaperStatus>& statuses,
    double load) {
  // The paper's Algorithm 2: binary search allStatus (sorted by Lmax) for
  // the first status whose Lmax exceeds the load, then read off its
  // (segment, k) and take the first k machines of that order.
  const auto it = std::upper_bound(
      statuses.begin(), statuses.end(), load,
      [](double l, const PaperStatus& st) { return l < st.l_max; });
  for (auto cand = it; cand != statuses.end(); ++cand) {
    // Walk forward past statuses whose subset violates the actuation
    // bounds (the paper has no such bounds; with them the first hit can be
    // infeasible).
    const detail::ConsolidationTable::Prefix p =
        table.prefix(ps, cand->segment, cand->k);
    const double t_subset = (p.a - load) / p.b;
    if (t_subset < ps.t_lo - kFeasEps) continue;
    ConsolidationChoice choice;
    table.make_choice_into(ps, model, cand->segment, cand->k, load, choice);
    return choice;
  }
  return std::nullopt;
}

detail::ConsolidationTable reference_table(const ParticleSystem& ps,
                                           const std::vector<uint32_t>& ids) {
  std::vector<double> times;
  for (size_t x = 0; x < ids.size(); ++x) {
    for (size_t y = x + 1; y < ids.size(); ++y) {
      const uint32_t p = ids[x];
      const uint32_t q = ids[y];
      const double db = ps.b[p] - ps.b[q];
      if (db == 0.0) continue;  // parallel particles never cross
      const double t = (ps.a[p] - ps.a[q]) / db;
      if (t > 0.0 && std::isfinite(t)) times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  std::vector<double> events;
  for (const double t : times) {
    detail::ConsolidationTable::collapse_append(events, t);
  }
  detail::ConsolidationTable table;
  table.build(ps, ids, events);
  return table;
}

detail::ConsolidationTable reference_table(const ParticleSystem& ps) {
  std::vector<uint32_t> ids(ps.size());
  std::iota(ids.begin(), ids.end(), 0u);
  return reference_table(ps, ids);
}

bool unpruned_best_into(const detail::ConsolidationTable& table,
                        const ParticleSystem& ps, const RoomModel& model,
                        double load, ConsolidationChoice& out,
                        detail::ConsolidationTable::Mask* mask) {
  const detail::ConsolidationTable::Anchors at = table.anchors(ps);
  size_t best_k = 0;
  size_t best_segment = 0;
  double best_power = 0.0;
  double sum_w2_k = 0.0;
  for (size_t k = 1; k <= table.width(mask); ++k) {
    sum_w2_k += ps.w2;
    size_t s = 0;
    double power = 0.0;
    if (!table.peek_k(ps, model, at, load, k, sum_w2_k, &s, &power, mask)) {
      continue;
    }
    if (best_k == 0 || power < best_power) {
      best_k = k;
      best_segment = s;
      best_power = power;
    }
  }
  if (best_k == 0) return false;
  table.make_choice_into(ps, model, best_segment, best_k, load, out, mask);
  return true;
}

// ---------------------------------------------------------------------------
// BruteForceConsolidator
// ---------------------------------------------------------------------------

BruteForceConsolidator::BruteForceConsolidator(RoomModel model)
    : model_(std::move(model)) {
  ParticleSystem::from_model(model_);  // validates; requires uniform w1/w2
  if (model_.size() > 20) {
    throw std::invalid_argument(
        "BruteForceConsolidator: refusing n > 20 (O(n 2^n) reference "
        "implementation; use IncrementalConsolidator)");
  }
}

std::optional<ConsolidationChoice> BruteForceConsolidator::best(double load) const {
  return best_of_size(load, 0);
}

std::optional<ConsolidationChoice> BruteForceConsolidator::best_of_size(
    double load, size_t k_filter) const {
  const ParticleSystem ps = ParticleSystem::from_model(model_);
  const size_t n = model_.size();
  const uint32_t full = (n == 32) ? UINT32_MAX : ((1u << n) - 1u);

  std::optional<ConsolidationChoice> best;
  std::vector<size_t> subset;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const size_t k = static_cast<size_t>(std::popcount(mask));
    if (k_filter != 0 && k != k_filter) continue;
    double sum_a = 0.0;
    double sum_b = 0.0;
    double sum_w2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        sum_a += ps.a[i];
        sum_b += ps.b[i];
        sum_w2 += model_.machines[i].power.w2;
      }
    }
    const double t_subset = (sum_a - load) / sum_b;
    if (t_subset < ps.t_lo - kFeasEps) continue;
    const double t_used = std::clamp(t_subset, ps.t_lo, ps.t_hi);
    const double power =
        sum_w2 + ps.w1 * load +
        model_.cooler.predict(ps.w1 * t_used, sum_w2 + ps.w1 * load);
    const bool improves =
        !best || power < best->predicted_total_power_w - 1e-12 ||
        (power < best->predicted_total_power_w + 1e-12 && k < best->k);
    if (improves) {
      subset.clear();
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) subset.push_back(i);
      }
      ConsolidationChoice c;
      c.on_set = subset;
      c.k = k;
      c.t_param = t_used;
      c.t_ac = ps.w1 * t_used;
      c.predicted_total_power_w = power;
      best = std::move(c);
    }
  }
  return best;
}

}  // namespace coolopt::core
