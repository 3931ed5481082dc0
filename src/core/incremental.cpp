#include "core/incremental.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.h"
#include "obs/scoped_timer.h"
#include "util/strings.h"

namespace coolopt::core {
namespace {

/// Crossing time of particles p and q in canonical p<q orientation, or a
/// negative sentinel when they never cross in t > 0. Both the cold pair
/// enumeration and the per-machine delta use THIS function, so the double
/// inserted and the double removed for a pair are bitwise identical.
double pair_crossing(const ParticleSystem& ps, size_t i, size_t j) {
  const size_t p = std::min(i, j);
  const size_t q = std::max(i, j);
  const double db = ps.b[p] - ps.b[q];
  if (db == 0.0) return -1.0;  // parallel particles never cross
  const double t = (ps.a[p] - ps.a[q]) / db;
  if (t > 0.0 && std::isfinite(t)) return t;
  return -1.0;
}

SharedRoomModel validated(SharedRoomModel model) {
  model->validate();
  return model;
}

/// Runs one table query with the `consolidation.*` query instrumentation;
/// `query` returns how many choices it produced (0 = infeasible).
template <typename Query>
size_t instrumented(const char* solver, size_t n, Query&& query) {
  obs::ScopedTimer timer(obs::maybe_histogram("consolidation.query_us"));
  obs::count("consolidation.queries");
  const size_t count = query();
  if (count == 0) obs::count("consolidation.infeasible_queries");
  if (obs::RunTrace* tr = obs::trace()) {
    tr->record_solve(obs::SolveSample{solver, static_cast<uint64_t>(n), 0,
                                      timer.elapsed_us(), count != 0, 0.0});
  }
  return count;
}

}  // namespace

IncrementalConsolidator::IncrementalConsolidator(SharedRoomModel model)
    : IncrementalConsolidator(validated(std::move(model)), kPreValidated) {}

IncrementalConsolidator::IncrementalConsolidator(SharedRoomModel model, PreValidated)
    : model_(std::move(model)) {
  particles_ = ParticleSystem::from_model(*model_, kPreValidated);
  active_.assign(particles_.size(), 1);
  cold_build();
}

void IncrementalConsolidator::cold_build() {
  obs::ScopedTimer timer(obs::maybe_histogram("consolidation.preprocess_us"));
  const size_t n = particles_.size();
  ids_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (active_[i] != 0) ids_.push_back(static_cast<uint32_t>(i));
  }

  // Accumulate multiplicities keyed by the exact double bits: with
  // SKU-structured fleets the distinct-time count is tiny even when the
  // pair count is quadratic, so this never materializes the O(n^2) list.
  std::unordered_map<uint64_t, uint64_t> counts;
  for (size_t x = 0; x < ids_.size(); ++x) {
    for (size_t y = x + 1; y < ids_.size(); ++y) {
      const double t = pair_crossing(particles_, ids_[x], ids_[y]);
      if (t > 0.0) ++counts[std::bit_cast<uint64_t>(t)];
    }
  }
  raw_.clear();
  raw_.reserve(counts.size());
  for (const auto& [bits, count] : counts) {
    raw_.push_back(RawEvent{std::bit_cast<double>(bits), count});
  }
  std::sort(raw_.begin(), raw_.end(),
            [](const RawEvent& x, const RawEvent& y) { return x.t < y.t; });
  table_.build(particles_, ids_, collapsed_events());

  obs::count("consolidation.preprocesses");
  obs::gauge_set("consolidation.events", static_cast<double>(table_.events.size()));
  obs::gauge_set("consolidation.segments",
                 static_cast<double>(table_.segments.size()));
}

std::vector<double> IncrementalConsolidator::collapsed_events() const {
  std::vector<double> distinct;
  distinct.reserve(raw_.size());
  for (const RawEvent& e : raw_) distinct.push_back(e.t);
  return detail::ConsolidationTable::collapse_events(distinct);
}

std::vector<double> IncrementalConsolidator::crossings_with(size_t i) const {
  std::vector<double> times;
  times.reserve(ids_.size());
  for (const uint32_t j : ids_) {
    if (j == i) continue;
    const double t = pair_crossing(particles_, i, j);
    if (t > 0.0) times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times;
}

void IncrementalConsolidator::raw_remove(const std::vector<double>& times) {
  size_t read = 0;
  size_t write = 0;
  size_t ti = 0;
  while (read < raw_.size()) {
    RawEvent e = raw_[read++];
    while (ti < times.size() && times[ti] == e.t) {
      if (e.count == 0) {
        throw std::logic_error(
            "IncrementalConsolidator: crossing-time multiplicity underflow");
      }
      --e.count;
      ++ti;
    }
    if (e.count > 0) raw_[write++] = e;
  }
  if (ti != times.size()) {
    throw std::logic_error(
        "IncrementalConsolidator: crossing time to remove is not in the "
        "multiset (delta drifted from the active set)");
  }
  raw_.resize(write);
}

void IncrementalConsolidator::raw_add(const std::vector<double>& times) {
  std::vector<RawEvent> merged;
  merged.reserve(raw_.size() + times.size());
  size_t ri = 0;
  size_t ti = 0;
  while (ri < raw_.size() || ti < times.size()) {
    if (ti >= times.size() ||
        (ri < raw_.size() && raw_[ri].t < times[ti])) {
      merged.push_back(raw_[ri++]);
      continue;
    }
    RawEvent e{times[ti], 0};
    if (ri < raw_.size() && raw_[ri].t == times[ti]) e = raw_[ri++];
    while (ti < times.size() && times[ti] == e.t) {
      ++e.count;
      ++ti;
    }
    merged.push_back(e);
  }
  raw_ = std::move(merged);
}

void IncrementalConsolidator::rebuild_table(const std::vector<uint32_t>& removed,
                                            const std::vector<uint32_t>& added,
                                            IncrementalApplyStats& stats) {
  std::vector<double> collapsed = collapsed_events();
  if (collapsed == table_.events) {
    // Same segment boundaries, hence same order times: patching the
    // membership of each (uniquely) sorted order reproduces the rebuild.
    table_.apply_membership_delta(particles_, removed, added);
    return;
  }
  stats.events_changed = true;
  table_.build(particles_, ids_, std::move(collapsed));
}

IncrementalApplyStats IncrementalConsolidator::set_active(
    const std::vector<char>& active_mask) {
  const size_t n = particles_.size();
  if (active_mask.size() != n) {
    throw std::invalid_argument(util::strf(
        "IncrementalConsolidator: active mask has %zu entries but the model "
        "has %zu machines",
        active_mask.size(), n));
  }

  std::vector<uint32_t> removed;
  std::vector<uint32_t> added;
  for (size_t i = 0; i < n; ++i) {
    const bool was = active_[i] != 0;
    const bool now = active_mask[i] != 0;
    if (was && !now) removed.push_back(static_cast<uint32_t>(i));
    if (!was && now) added.push_back(static_cast<uint32_t>(i));
  }

  IncrementalApplyStats stats;
  stats.removed = removed.size();
  stats.restored = added.size();
  if (removed.empty() && added.empty()) return stats;

  size_t next_active = 0;
  for (size_t i = 0; i < n; ++i) {
    if (active_mask[i] != 0) ++next_active;
  }
  // A delta touching a large fraction of the fleet costs about as much as
  // starting over; the cutoff only affects speed — both paths produce the
  // identical table.
  if ((removed.size() + added.size()) * 3 > next_active + 1) {
    active_ = active_mask;
    stats.cold_rebuild = true;
    cold_build();
    return stats;
  }

  for (const uint32_t i : removed) {
    raw_remove(crossings_with(i));
    active_[i] = 0;
    ids_.erase(std::find(ids_.begin(), ids_.end(), i));
  }
  for (const uint32_t i : added) {
    raw_add(crossings_with(i));
    active_[i] = 1;
    ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), i), i);
  }
  rebuild_table(removed, added, stats);
  return stats;
}

std::vector<ConsolidationChoice> IncrementalConsolidator::rank_all_k(
    double load) const {
  std::vector<ConsolidationChoice> out;
  out.resize(rank_all_k_into(load, out));
  return out;
}

bool IncrementalConsolidator::query_best_into(double load,
                                              ConsolidationChoice& out) const {
  if (load < 0.0) {
    throw std::invalid_argument("IncrementalConsolidator: negative load");
  }
  return instrumented("consolidation.query", ids_.size(), [&]() -> size_t {
           return table_.query_best_into(particles_, *model_, load, out);
         }) != 0;
}

size_t IncrementalConsolidator::rank_all_k_into(
    double load, std::vector<ConsolidationChoice>& out) const {
  // Instrumented as a query: this is the Algorithm 2 machinery run once per
  // k, and it is the entry point the planner's ranked walk exercises.
  return instrumented("consolidation.rank_all_k", ids_.size(), [&] {
    return table_.rank_all_k_into(particles_, *model_, load, out);
  });
}

double IncrementalConsolidator::max_load_for_budget(double power_budget_w,
                                                    size_t k) const {
  return table_.max_load_for_budget(particles_, *model_, power_budget_w, k);
}

}  // namespace coolopt::core
