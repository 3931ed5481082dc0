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
//   * The raw pair-crossing times are a detail::CrossingMultiset keyed by
//     the exact double: class pair (c, d) contributes its time with
//     multiplicity active(c) * active(d). A machine's departure subtracts
//     its class's time against every other active class, weighted by that
//     class's active count; a join adds them back. Multiset add/remove
//     commutes, so the raw state is a pure function of the active set,
//     independent of the churn history that produced it.
//   * The collapsed event list is re-derived from the raw multiset with
//     the same tolerance collapse as the paper's sort-then-collapse over
//     the duplicated list. A walk over sorted distinct values keeps
//     exactly the same representatives (duplicates of a kept value never
//     move the comparison anchor); the reference-build tests pin this.
//   * Segments/orders are rebuilt through the shared
//     detail::ConsolidationTable::build — or, when the event list is
//     unchanged (the common case for quarantine churn: it changes only
//     when a class's active count reaches or leaves zero), patched via
//     apply_membership_delta, which reproduces the unique sorted order a
//     full rebuild would compute and marks each segment's prefix sums
//     stale from the first changed position; the first read past it
//     refolds that tail with the rebuild's own left-to-right adds.
//
// Hence: for any churn history ending at active set A, the table equals
// the one a cold IncrementalConsolidator builds directly at A — verified
// bit-for-bit by the `scale`-labelled tests.
//
// Cost, for a room of n machines in D classes: a cold build is O(D^2)
// divisions plus a sort of at most D^2/2 distinct times, then the segment
// sorts; a single-machine delta is O(D) divisions and a sort of D times, a
// linear merge over the raw multiset, and per segment an O(lg n) locate
// and one erase/insert. The prefix refold is deferred to the first read
// past the changed position: a query pays for the tails of the segments
// it reads there, once per run of deltas, and a segment it never reads
// there is never re-summed. Every per-delta
// buffer is a grow-only member, so a warm delta allocates nothing. The
// `engine.incremental.*` metrics expose the hit/rebuild mix; cold builds
// and queries record the `consolidation.*` metrics.
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
namespace detail {

/// The raw (uncollapsed) pair-crossing times of an active set: a sorted
/// run-length-encoded multiset keyed by the exact double. add/remove take
/// runs normalized by normalize() and merge them in linearly; remove throws
/// std::logic_error when a time is absent or its multiplicity would
/// underflow (the delta drifted from the active set).
class CrossingMultiset {
 public:
  struct Run {
    double t = 0.0;      // a crossing time (exact double)
    uint64_t count = 0;  // how many active pairs cross at exactly t
  };

  /// Sorts runs by time and merges runs of bitwise-equal time.
  static void normalize(std::vector<Run>& runs);
  void clear() { runs_.clear(); }
  void add(const std::vector<Run>& normalized);
  void remove(const std::vector<Run>& normalized);
  /// Strictly increasing times, every count > 0.
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
  std::vector<Run> merged_;  // add()'s merge target, swapped with runs_
};

}  // namespace detail

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
  /// Fills delta_ with class c's crossing times against every other
  /// active class, each weighted by that class's active count, normalized.
  void class_crossings(uint32_t c);
  /// The raw multiset's distinct times through the tolerance collapse,
  /// into collapsed_.
  void collapse_crossings();
  void rebuild_table(IncrementalApplyStats& stats);

  SharedRoomModel model_;
  ParticleSystem particles_;      // full fleet; the mask selects into it
  std::vector<uint32_t> class_of_;      // machine -> class
  std::vector<uint32_t> class_rep_;     // class -> its lowest machine id
  std::vector<uint64_t> class_active_;  // class -> active member count
  std::vector<char> active_;
  std::vector<uint32_t> ids_;     // active ids, ascending
  detail::CrossingMultiset crossings_;
  detail::ConsolidationTable table_;
  // Per-delta buffers, grow-only so a warm delta allocates nothing.
  std::vector<uint32_t> removed_;
  std::vector<uint32_t> added_;
  std::vector<detail::CrossingMultiset::Run> delta_;
  std::vector<double> collapsed_;
};

}  // namespace coolopt::core
