// Algorithm 1 (Section III-B): the event/segment table of the
// consolidation reduction over a room's active machines. This is the one
// owner of detail::ConsolidationTable. A cold build enumerates every
// active pair's crossing time; after that the table is maintained under
// single-machine join/leave/quarantine deltas — the exact churn
// ResilientController generates — instead of the O(n^3 lg n) full rebuild.
//
// How it stays bit-for-bit identical to a rebuilt table:
//
//   * The raw pair-crossing times are kept as a sorted run-length-encoded
//     multiset keyed by the EXACT double value. A machine's departure
//     subtracts precisely the crossing times of its pairs (recomputed with
//     the canonical p<q orientation, so the division yields the identical
//     double); a join adds them back. Multiset add/remove commutes, so the
//     raw state is a pure function of the active set, independent of the
//     churn history that produced it.
//   * The collapsed event list is re-derived from the raw multiset with
//     the same tolerance collapse as the paper's sort-then-collapse over
//     the duplicated list. A walk over sorted distinct values keeps
//     exactly the same representatives (duplicates of a kept value never
//     move the comparison anchor); the reference-build tests pin this.
//   * Segments/orders are rebuilt through the shared
//     detail::ConsolidationTable::build — or, when the event list is
//     unchanged (the common case for quarantine churn in SKU-structured
//     fleets, where crossing-time multiplicities are high), patched via
//     apply_membership_delta, which reproduces the unique sorted order a
//     full rebuild would compute.
//
// Hence: for any churn history ending at active set A, the table equals
// the one a cold IncrementalConsolidator builds directly at A — verified
// bit-for-bit by the `scale`-labelled tests.
//
// Cost per single-machine delta: O(n) divisions against the active set,
// a linear merge over the raw multiset, and O(#segments * n) order
// patching — versus the Theta(n^2) pair enumeration (plus sort) of a cold
// build. The `engine.incremental.*` metrics expose the hit/rebuild mix;
// cold builds and queries record the `consolidation.*` metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/consolidation_table.h"
#include "core/model.h"

namespace coolopt::core {

/// What one set_active() transition did, for metrics and tests.
struct IncrementalApplyStats {
  size_t removed = 0;        ///< machines that left the active set
  size_t restored = 0;       ///< machines that (re)joined the active set
  bool cold_rebuild = false; ///< fell back to the full pair enumeration
  bool events_changed = false;  ///< collapsed event list changed (re-sorted
                                ///< segments instead of patching orders)
};

class IncrementalConsolidator {
 public:
  /// Cold-builds the table over every machine of the room.
  explicit IncrementalConsolidator(SharedRoomModel model);
  /// Skips RoomModel::validate() (caller already ran it).
  IncrementalConsolidator(SharedRoomModel model, PreValidated);

  /// Moves the table to the given active set (mask over all machines,
  /// non-zero = active), applying the delta against the current set.
  /// The resulting table depends only on the mask, never on history.
  IncrementalApplyStats set_active(const std::vector<char>& active_mask);

  /// Best subset of active machines for every feasible k, sorted by
  /// predicted power then k. Machine ids are ORIGINAL model indices. Lets
  /// callers walk down the ranking when the best choice fails external
  /// validation (capacity/LP).
  std::vector<ConsolidationChoice> rank_all_k(double load) const;

  /// The exact query: the winning choice alone — rank_all_k(load).front()
  /// — in O(n lg #segments) instead of the full ranking's O(n^2) on_set
  /// materialization, written into a caller-owned choice (buffers reused).
  /// Returns false when no subset is feasible; throws
  /// std::invalid_argument on a negative load.
  bool query_best_into(double load, ConsolidationChoice& out) const;

  /// rank_all_k into a grow-only buffer; entries [0, returned count) are
  /// the ranking, spare slots keep their heap blocks for reuse. Same
  /// bit-for-bit sequence as rank_all_k.
  size_t rank_all_k_into(double load, std::vector<ConsolidationChoice>& out) const;

  /// The paper's maxL(A, P_b, k): largest load exactly-k active machines
  /// can serve with predicted total power <= power_budget_w. 0 if even L=0
  /// is over budget; capped at the load that drives t to t_lo. Throws
  /// std::invalid_argument unless 1 <= k <= the active machine count.
  double max_load_for_budget(double power_budget_w, size_t k) const;

  // --- introspection for tests/benches ---
  const std::vector<uint32_t>& active_ids() const { return ids_; }
  size_t event_count() const { return table_.events.size(); }
  size_t segment_count() const { return table_.segments.size(); }
  const detail::ConsolidationTable& table() const { return table_; }
  const ParticleSystem& particles() const { return particles_; }
  const RoomModel& model() const { return *model_; }

 private:
  struct RawEvent {
    double t = 0.0;      // a distinct crossing time (exact double)
    uint64_t count = 0;  // how many active pairs cross at exactly t
  };

  void cold_build();
  /// The raw multiset's distinct times through the tolerance collapse.
  std::vector<double> collapsed_events() const;
  /// Crossing times of machine i against every currently-active machine
  /// except i itself, sorted ascending.
  std::vector<double> crossings_with(size_t i) const;
  void raw_remove(const std::vector<double>& times);
  void raw_add(const std::vector<double>& times);
  void rebuild_table(const std::vector<uint32_t>& removed,
                     const std::vector<uint32_t>& added,
                     IncrementalApplyStats& stats);

  SharedRoomModel model_;
  ParticleSystem particles_;      // full fleet; the mask selects into it
  std::vector<char> active_;
  std::vector<uint32_t> ids_;     // active ids, ascending
  std::vector<RawEvent> raw_;     // sorted by t, strictly increasing
  detail::ConsolidationTable table_;
};

}  // namespace coolopt::core
