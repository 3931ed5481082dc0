// The consolidation query over a room (Section III-B): the one owner of a
// detail::ClassSelector, Algorithm 2's select(A, k, L) answered on demand.
// It groups the room's machines into particle classes once, cold, and
// never changes them. A restricted query (a quarantined solve's survivors)
// reads the same selector through a View that admits only those machines;
// it answers what a consolidator over a room of the survivors answers, bit
// for bit with indices mapped back.
//
// Cost, for a room of n machines in D classes: construction sorts the n
// particles once; a query holds O(D) state and solves each k it visits by
// a few Newton steps over the classes. Construction records the
// `consolidation.preprocess*` metrics, queries the `consolidation.*` query
// metrics.
//
// Threads: the selector is immutable, so queries with no view or with a
// caller's own View may run from any number of threads. Queries that use
// the view set_active stored share it: a consolidator that calls
// set_active is queried from one thread at a time.
#pragma once

#include <cstddef>
#include <vector>

#include "core/class_selector.h"
#include "core/model.h"

namespace coolopt::core {

class IncrementalConsolidator {
 public:
  using View = detail::ClassSelector::View;

  /// Groups the room's machines into particle classes.
  explicit IncrementalConsolidator(SharedRoomModel model);
  /// Skips RoomModel::validate() (caller already ran it).
  IncrementalConsolidator(SharedRoomModel model, PreValidated);
  // stored_ points at active_, so a copy would read another object's mask.
  IncrementalConsolidator(const IncrementalConsolidator&) = delete;
  IncrementalConsolidator& operator=(const IncrementalConsolidator&) = delete;

  /// Restricts the queries called without a View of their own to the
  /// machines whose byte in `active_mask` is non-zero. The selector does
  /// not change. Throws std::invalid_argument unless the mask has one entry
  /// per machine.
  void set_active(const std::vector<char>& active_mask);

  // Each query reads `view` when given (reset for table()), else
  // set_active's mask, else the whole room.

  /// The exact query: the winning choice alone — the head of
  /// rank_all_k_into's ranking — from the selector's one head scan, which
  /// stops at an exact power floor (ClassSelector::scan_head), written
  /// into a caller-owned choice (buffers reused).
  /// Returns false when no subset is feasible; throws
  /// std::invalid_argument on a negative load.
  bool query_best_into(double load, ConsolidationChoice& out,
                       View* view = nullptr) const;

  /// Best subset of the admitted machines for every feasible k as (k, t,
  /// power) entries, sorted by predicted power then k, into `out`. An
  /// entry's subset is the top k at its time t (table().top_k_into copies
  /// it, in ORIGINAL model indices). Lets callers walk down the ranking
  /// when the best choice fails external validation (capacity, via the
  /// bounded solver).
  void rank_all_k_into(double load, std::vector<RankEntry>& out,
                       View* view = nullptr) const;

  /// The paper's maxL(A, P_b, k): largest load exactly-k admitted machines
  /// can serve with predicted total power <= power_budget_w. 0 if even L=0
  /// is over budget; capped at the load that drives t to t_lo. Throws
  /// std::invalid_argument unless 1 <= k <= the admitted machine count.
  double max_load_for_budget(double power_budget_w, size_t k,
                             View* view = nullptr) const;

  // --- introspection for tests/benches ---
  /// Distinct particle classes (bitwise-equal (a, b)) in the whole room.
  size_t class_count() const { return selector_.class_count(); }
  /// The on-demand selector the queries run on.
  const detail::ClassSelector& table() const { return selector_; }
  const ParticleSystem& particles() const { return particles_; }
  const RoomModel& model() const { return *model_; }

 private:
  /// `view`, else set_active's view, else nullptr (the whole room).
  View* view_or_stored(View* view) const;

  SharedRoomModel model_;
  ParticleSystem particles_;
  detail::ClassSelector selector_;
  std::vector<char> active_;  // set_active's mask; empty until then
  mutable View stored_;       // bound to active_
};

}  // namespace coolopt::core
