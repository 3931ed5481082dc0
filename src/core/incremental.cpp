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
  obs::ScopedTimer timer(obs::maybe_histogram("consolidation.preprocess_us"));
  particles_ = ParticleSystem::from_model(*model_, kPreValidated);
  const size_t n = particles_.size();

  // Classes: runs of machines whose (a, b) bits agree, found by sorting on
  // the bits with the id as tie-break, so each run starts at its lowest id.
  const auto bits = [&](uint32_t i) {
    return std::pair{std::bit_cast<uint64_t>(particles_.a[i]),
                     std::bit_cast<uint64_t>(particles_.b[i])};
  };
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<uint32_t> by_bits = ids;
  std::sort(by_bits.begin(), by_bits.end(), [&](uint32_t x, uint32_t y) {
    return std::pair{bits(x), x} < std::pair{bits(y), y};
  });
  for (size_t r = 0; r < n; ++r) {
    const uint32_t i = by_bits[r];
    if (r == 0 || bits(i) != bits(by_bits[r - 1])) class_rep_.push_back(i);
  }

  // One division per pair of classes: every machine pair of the two
  // classes crosses at that time, and a duplicate changes nothing the
  // collapse keeps.
  std::vector<double> times;
  for (size_t c = 0; c < class_rep_.size(); ++c) {
    for (size_t d = c + 1; d < class_rep_.size(); ++d) {
      const double t = pair_crossing(particles_, class_rep_[c], class_rep_[d]);
      if (t > 0.0) times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  std::vector<double> collapsed;
  for (const double t : times) {
    detail::ConsolidationTable::collapse_append(collapsed, t);
  }
  table_.build(particles_, ids, collapsed);

  obs::count("consolidation.preprocesses");
  obs::gauge_set("consolidation.events", static_cast<double>(table_.events.size()));
  obs::gauge_set("consolidation.segments",
                 static_cast<double>(table_.segments.size()));
}

void IncrementalConsolidator::set_active(const std::vector<char>& active_mask) {
  if (active_mask.size() != particles_.size()) {
    throw std::invalid_argument(util::strf(
        "IncrementalConsolidator: active mask has %zu entries but the model "
        "has %zu machines",
        active_mask.size(), particles_.size()));
  }
  active_ = active_mask;
  stored_.reset(table_, active_);
}

IncrementalConsolidator::Mask* IncrementalConsolidator::mask_or_stored(
    Mask* mask) const {
  if (mask != nullptr) return mask;
  return active_.empty() ? nullptr : &stored_;
}

bool IncrementalConsolidator::query_best_into(double load,
                                              ConsolidationChoice& out,
                                              Mask* mask) const {
  if (load < 0.0) {
    throw std::invalid_argument("IncrementalConsolidator: negative load");
  }
  mask = mask_or_stored(mask);
  return instrumented("consolidation.query", table_.width(mask),
                      [&]() -> size_t {
                        return table_.query_best_into(particles_, *model_,
                                                      load, out, mask);
                      }) != 0;
}

void IncrementalConsolidator::rank_all_k_into(double load,
                                              std::vector<RankEntry>& out,
                                              Mask* mask) const {
  // Instrumented as a query: this is the Algorithm 2 machinery run once per
  // k, and it is the entry point the planner's ranked walk exercises.
  mask = mask_or_stored(mask);
  instrumented("consolidation.rank_all_k", table_.width(mask), [&] {
    table_.rank_all_k_into(particles_, *model_, load, out, mask);
    return out.size();
  });
}

double IncrementalConsolidator::max_load_for_budget(double power_budget_w,
                                                    size_t k,
                                                    Mask* mask) const {
  return table_.max_load_for_budget(particles_, *model_, power_budget_w, k,
                                    mask_or_stored(mask));
}

}  // namespace coolopt::core
