// Algorithm 1 (Section III-B): the event/segment table of the
// consolidation reduction over a room's active machines. This is the one
// owner of detail::ConsolidationTable. A cold build enumerates the
// crossing times of the active set; after that the table is maintained
// under single-machine join/leave/quarantine deltas — the exact churn
// ResilientController generates — instead of the O(n^3 lg n) full rebuild.
//
// How it stays bit-for-bit identical to a rebuilt table:
//
//   * Machines are grouped once, at construction, into classes whose
//     particles (a, b) agree bit for bit. Under round-to-nearest
//     fl(x - y) = -fl(y - x) and fl((-x) / (-y)) = fl(x / y), so every
//     member of class c crosses every member of class d at bitwise the
//     time the two representatives cross, whichever of the pair has the
//     lower id (the canonical p<q orientation the paper's pair enumeration
//     uses). Members of one class never cross (equal speeds). Machines
//     equal in value but not in bits (+0.0 / -0.0) are separate classes.
//   * The collapsed event list is a pure function of which classes have an
//     active member: one division per pair of such classes, the times
//     sorted (duplicates kept) and passed through the same tolerance
//     collapse as the paper's sort-then-collapse over every machine pair.
//     A duplicate of a time never moves the collapse's comparison anchor,
//     so the class pairs keep exactly the representatives the machine
//     pairs would; the reference-build tests pin this. The list can change
//     only when some class's active count reaches or leaves zero, so only
//     such a delta recomputes it.
//   * Segments/orders are rebuilt through the shared
//     detail::ConsolidationTable::build when the event list changed, and
//     otherwise (always, for quarantine churn that empties no class)
//     patched via apply_membership_delta, which reproduces the unique
//     sorted order a full rebuild would compute and marks each segment's
//     prefix sums stale from the first changed position; the first read
//     past it refolds that tail with the rebuild's own left-to-right adds.
//
// Hence: for any churn history ending at active set A, the table equals
// the one a cold IncrementalConsolidator builds directly at A — verified
// bit-for-bit by the `scale`-labelled tests.
//
// Cost, for a room of n machines in D classes: a cold build is O(D^2)
// divisions plus a sort of at most D^2/2 times, then the segment sorts. A
// single-machine delta is, per segment, an O(lg n) locate and one
// erase/insert; only a delta that empties a class or fills an empty one
// also recomputes the event list in O(D^2 lg D), and a changed list
// rebuilds the segments. The prefix refold is deferred to the first read
// past the changed position: a query pays for the tails of the segments
// it reads there, once per run of deltas, and a segment it never reads
// there is never re-summed. Every per-delta buffer is a grow-only member,
// so a warm delta allocates nothing. The `engine.incremental.*` metrics
// expose the hit/rebuild mix; cold builds and queries record the
// `consolidation.*` metrics.
//
// Threads: a table that has taken a delta refolds on read, so its const
// queries write. A consolidator that calls set_active must be moved and
// queried under one lock; one that never does (PlanEngine's full-fleet
// table) is fully folded and may be queried from any number of threads.
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
  bool cold_rebuild = false; ///< fell back to a cold build (class pairs)
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

  /// The exact query: the winning choice alone — the head of
  /// rank_all_k_into's ranking — from the table's one head scan, which
  /// stops at an exact power floor (ConsolidationTable::scan_head), instead
  /// of the full ranking over every k, written into a caller-owned choice
  /// (buffers reused).
  /// Returns false when no subset is feasible; throws
  /// std::invalid_argument on a negative load.
  bool query_best_into(double load, ConsolidationChoice& out) const;

  /// Best subset of active machines for every feasible k as (k, segment,
  /// power) entries, sorted by predicted power then k, into `out`. An
  /// entry's subset is the top k of table().segments[segment].order
  /// (ORIGINAL model indices) until the table next moves. Lets callers walk
  /// down the ranking when the best choice fails external validation
  /// (capacity, via the bounded solver).
  void rank_all_k_into(double load, std::vector<RankEntry>& out) const;

  /// The paper's maxL(A, P_b, k): largest load exactly-k active machines
  /// can serve with predicted total power <= power_budget_w. 0 if even L=0
  /// is over budget; capped at the load that drives t to t_lo. Throws
  /// std::invalid_argument unless 1 <= k <= the active machine count.
  double max_load_for_budget(double power_budget_w, size_t k) const;

  // --- introspection for tests/benches ---
  const std::vector<uint32_t>& active_ids() const { return ids_; }
  /// Distinct particle classes (bitwise-equal (a, b)) in the whole room.
  size_t class_count() const { return class_rep_.size(); }
  size_t event_count() const { return table_.events.size(); }
  size_t segment_count() const { return table_.segments.size(); }
  const detail::ConsolidationTable& table() const { return table_; }
  const ParticleSystem& particles() const { return particles_; }
  const RoomModel& model() const { return *model_; }

 private:
  void cold_build();
  /// The crossing time of every pair of classes that both have an active
  /// member, sorted and through the tolerance collapse, into collapsed_.
  void collapse_crossings();

  SharedRoomModel model_;
  ParticleSystem particles_;      // full fleet; the mask selects into it
  std::vector<uint32_t> class_of_;      // machine -> class
  std::vector<uint32_t> class_rep_;     // class -> its lowest machine id
  std::vector<uint64_t> class_active_;  // class -> active member count
  std::vector<char> active_;
  std::vector<uint32_t> ids_;     // active ids, ascending
  detail::ConsolidationTable table_;
  // Per-delta buffers, grow-only so a warm delta allocates nothing.
  std::vector<uint32_t> removed_;
  std::vector<uint32_t> added_;
  std::vector<double> times_;
  std::vector<double> collapsed_;
};

}  // namespace coolopt::core
