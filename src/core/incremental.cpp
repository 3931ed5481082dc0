#include "core/incremental.h"

#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "obs/scoped_timer.h"
#include "util/strings.h"

namespace coolopt::core {
namespace {

SharedRoomModel validated(SharedRoomModel model) {
  model->validate();
  return model;
}

/// Runs one selector query with the `consolidation.*` query
/// instrumentation; `query` returns how many choices it produced
/// (0 = infeasible).
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
  selector_ = detail::ClassSelector(particles_);
  obs::count("consolidation.preprocesses");
}

void IncrementalConsolidator::set_active(const std::vector<char>& active_mask) {
  if (active_mask.size() != particles_.size()) {
    throw std::invalid_argument(util::strf(
        "IncrementalConsolidator: active mask has %zu entries but the model "
        "has %zu machines",
        active_mask.size(), particles_.size()));
  }
  active_ = active_mask;
  stored_.reset(selector_, active_);
}

IncrementalConsolidator::View* IncrementalConsolidator::view_or_stored(
    View* view) const {
  if (view != nullptr) return view;
  return active_.empty() ? nullptr : &stored_;
}

bool IncrementalConsolidator::query_best_into(double load,
                                              ConsolidationChoice& out,
                                              View* view) const {
  if (load < 0.0) {
    throw std::invalid_argument("IncrementalConsolidator: negative load");
  }
  view = view_or_stored(view);
  return instrumented("consolidation.query", selector_.width(view),
                      [&]() -> size_t {
                        return selector_.query_best_into(particles_, *model_,
                                                         load, out, view);
                      }) != 0;
}

void IncrementalConsolidator::rank_all_k_into(double load,
                                              std::vector<RankEntry>& out,
                                              View* view) const {
  // Instrumented as a query: this is the Algorithm 2 machinery run once per
  // k, and it is the entry point the planner's ranked walk exercises.
  view = view_or_stored(view);
  instrumented("consolidation.rank_all_k", selector_.width(view), [&] {
    selector_.rank_all_k_into(particles_, *model_, load, out, view);
    return out.size();
  });
}

double IncrementalConsolidator::max_load_for_budget(double power_budget_w,
                                                    size_t k,
                                                    View* view) const {
  return selector_.max_load_for_budget(particles_, *model_, power_budget_w, k,
                                       view_or_stored(view));
}

}  // namespace coolopt::core
