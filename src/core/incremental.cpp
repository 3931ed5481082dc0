#include "core/incremental.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "obs/scoped_timer.h"
#include "util/strings.h"

namespace coolopt::core {
namespace {

/// Crossing time of particles p and q in canonical p<q orientation, or a
/// negative sentinel when they never cross in t > 0. Applied to two class
/// representatives it is bitwise the crossing time of every member pair of
/// those classes (see the header), whichever member has the lower id.
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
    tr->record_solve(obs::SolveSample{solver, static_cast<uint64_t>(n),
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
  const size_t n = particles_.size();

  // Classes: runs of machines whose (a, b) bits agree, found by sorting on
  // the bits with the id as tie-break, so each run starts at its lowest id.
  const auto bits = [&](uint32_t i) {
    return std::pair{std::bit_cast<uint64_t>(particles_.a[i]),
                     std::bit_cast<uint64_t>(particles_.b[i])};
  };
  std::vector<uint32_t> by_bits(n);
  std::iota(by_bits.begin(), by_bits.end(), 0u);
  std::sort(by_bits.begin(), by_bits.end(), [&](uint32_t x, uint32_t y) {
    return std::pair{bits(x), x} < std::pair{bits(y), y};
  });
  class_of_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const uint32_t i = by_bits[r];
    if (r == 0 || bits(i) != bits(by_bits[r - 1])) class_rep_.push_back(i);
    class_of_[i] = static_cast<uint32_t>(class_rep_.size() - 1);
  }

  active_.assign(n, 1);
  cold_build();
}

void IncrementalConsolidator::cold_build() {
  obs::ScopedTimer timer(obs::maybe_histogram("consolidation.preprocess_us"));
  const size_t n = particles_.size();
  ids_.clear();
  class_active_.assign(class_rep_.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    if (active_[i] == 0) continue;
    ids_.push_back(static_cast<uint32_t>(i));
    ++class_active_[class_of_[i]];
  }

  collapse_crossings();
  table_.build(particles_, ids_, collapsed_);

  obs::count("consolidation.preprocesses");
  obs::gauge_set("consolidation.events", static_cast<double>(table_.events.size()));
  obs::gauge_set("consolidation.segments",
                 static_cast<double>(table_.segments.size()));
}

void IncrementalConsolidator::collapse_crossings() {
  // One division per pair of active classes: every machine pair of the
  // two classes crosses at that time, and a duplicate changes nothing the
  // collapse keeps.
  times_.clear();
  for (uint32_t c = 0; c < class_rep_.size(); ++c) {
    if (class_active_[c] == 0) continue;
    for (uint32_t d = c + 1; d < class_rep_.size(); ++d) {
      if (class_active_[d] == 0) continue;
      const double t = pair_crossing(particles_, class_rep_[c], class_rep_[d]);
      if (t > 0.0) times_.push_back(t);
    }
  }
  std::sort(times_.begin(), times_.end());
  collapsed_.clear();
  for (const double t : times_) {
    detail::ConsolidationTable::collapse_append(collapsed_, t);
  }
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

  removed_.clear();
  added_.clear();
  for (size_t i = 0; i < n; ++i) {
    const bool was = active_[i] != 0;
    const bool now = active_mask[i] != 0;
    if (was && !now) removed_.push_back(static_cast<uint32_t>(i));
    if (!was && now) added_.push_back(static_cast<uint32_t>(i));
  }

  IncrementalApplyStats stats;
  stats.removed = removed_.size();
  stats.restored = added_.size();
  if (removed_.empty() && added_.empty()) return stats;

  const size_t next_active = ids_.size() - removed_.size() + added_.size();
  // A delta touching a large fraction of the fleet costs about as much as
  // starting over; the cutoff only affects speed — both paths produce the
  // identical table.
  if ((removed_.size() + added_.size()) * 3 > next_active + 1) {
    active_ = active_mask;
    stats.cold_rebuild = true;
    cold_build();
    return stats;
  }

  // The event list can only change when a class empties or fills.
  bool classes_moved = false;
  for (const uint32_t i : removed_) {
    classes_moved |= (--class_active_[class_of_[i]] == 0);
    active_[i] = 0;
    ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), i));
  }
  for (const uint32_t i : added_) {
    classes_moved |= (class_active_[class_of_[i]]++ == 0);
    active_[i] = 1;
    ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), i), i);
  }
  if (classes_moved) collapse_crossings();
  if (!classes_moved || collapsed_ == table_.events) {
    // Same segment boundaries, hence same order times: patching the
    // membership of each (uniquely) sorted order reproduces the rebuild.
    table_.apply_membership_delta(particles_, removed_, added_);
    return stats;
  }
  stats.events_changed = true;
  table_.build(particles_, ids_, collapsed_);
  return stats;
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

void IncrementalConsolidator::rank_all_k_into(
    double load, std::vector<RankEntry>& out) const {
  // Instrumented as a query: this is the Algorithm 2 machinery run once per
  // k, and it is the entry point the planner's ranked walk exercises.
  instrumented("consolidation.rank_all_k", ids_.size(), [&] {
    table_.rank_all_k_into(particles_, *model_, load, out);
    return out.size();
  });
}

double IncrementalConsolidator::max_load_for_budget(double power_budget_w,
                                                    size_t k) const {
  return table_.max_load_for_budget(particles_, *model_, power_budget_w, k);
}

}  // namespace coolopt::core
