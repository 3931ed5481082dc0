// Algorithm 1 (Section III-B): the event/segment table of the
// consolidation reduction over a room. This is the one owner of
// detail::ConsolidationTable: it builds the table once, cold, over every
// machine of the room, and never changes it. A restricted query (a
// quarantined solve's survivors) reads the same table through a
// detail::ConsolidationTable::Mask that skips the other machines; over the
// room's event list it answers what a table built over the survivors
// answers, bit for bit.
//
// How the cold build equals the paper's pair enumeration bit for bit:
//
//   * Machines are grouped, at construction, into classes whose particles
//     (a, b) agree bit for bit. Under round-to-nearest fl(x - y) =
//     -fl(y - x) and fl((-x) / (-y)) = fl(x / y), so every member of class c
//     crosses every member of class d at bitwise the time the two
//     representatives cross, whichever of the pair has the lower id (the
//     canonical p<q orientation the paper's pair enumeration uses). Members
//     of one class never cross (equal speeds). Machines equal in value but
//     not in bits (+0.0 / -0.0) are separate classes.
//   * The collapsed event list is one division per pair of classes, the
//     times sorted (duplicates kept) and passed through the same tolerance
//     collapse as the paper's sort-then-collapse over every machine pair. A
//     duplicate of a time never moves the collapse's comparison anchor, so
//     the class pairs keep exactly the representatives the machine pairs
//     would; the reference-build tests pin this.
//
// A restricted query keeps the whole room's event list. Where the
// survivors still have a member in every class, that is the list the
// paper's enumeration over the survivors collapses to, so the answer is
// the reference's bit for bit. Where a quarantine empties a class, the list
// keeps that class's crossing times: extra segment boundaries across which
// the survivors' order does not change, so the answers agree with the
// reference's up to the tolerance collapse's anchors (the crossing-class
// tests hold the gate).
//
// Cost, for a room of n machines in D classes: a cold build is O(D^2)
// divisions plus a sort of at most D^2/2 times, then the segment sorts.
// Cold builds record the `consolidation.*` preprocess metrics, queries the
// `consolidation.*` query metrics.
//
// Threads: the table is immutable, so queries with no mask or with a
// caller's own Mask may run from any number of threads. Queries that use
// the mask set_active stored share its cursors: a consolidator that calls
// set_active is queried from one thread at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/consolidation_table.h"
#include "core/model.h"

namespace coolopt::core {

class IncrementalConsolidator {
 public:
  using Mask = detail::ConsolidationTable::Mask;

  /// Cold-builds the table over every machine of the room.
  explicit IncrementalConsolidator(SharedRoomModel model);
  /// Skips RoomModel::validate() (caller already ran it).
  IncrementalConsolidator(SharedRoomModel model, PreValidated);
  // stored_ points at active_, so a copy would read another object's mask.
  IncrementalConsolidator(const IncrementalConsolidator&) = delete;
  IncrementalConsolidator& operator=(const IncrementalConsolidator&) = delete;

  /// Restricts the queries called without a Mask of their own to the
  /// machines whose byte in `active_mask` is non-zero. The table does not
  /// change. Throws std::invalid_argument unless the mask has one entry per
  /// machine.
  void set_active(const std::vector<char>& active_mask);

  // Each query reads `mask` when given (bound to this table by
  // Mask::reset), else set_active's mask, else the whole room.

  /// The exact query: the winning choice alone — the head of
  /// rank_all_k_into's ranking — from the table's one head scan, which
  /// stops at an exact power floor (ConsolidationTable::scan_head), instead
  /// of the full ranking over every k, written into a caller-owned choice
  /// (buffers reused).
  /// Returns false when no subset is feasible; throws
  /// std::invalid_argument on a negative load.
  bool query_best_into(double load, ConsolidationChoice& out,
                       Mask* mask = nullptr) const;

  /// Best subset of the admitted machines for every feasible k as (k,
  /// segment, power) entries, sorted by predicted power then k, into `out`.
  /// An entry's subset is the first k admitted ids of
  /// table().segments[segment].order (ORIGINAL model indices;
  /// ConsolidationTable::top_k_into copies them). Lets callers walk down
  /// the ranking when the best choice fails external validation (capacity,
  /// via the bounded solver).
  void rank_all_k_into(double load, std::vector<RankEntry>& out,
                       Mask* mask = nullptr) const;

  /// The paper's maxL(A, P_b, k): largest load exactly-k admitted machines
  /// can serve with predicted total power <= power_budget_w. 0 if even L=0
  /// is over budget; capped at the load that drives t to t_lo. Throws
  /// std::invalid_argument unless 1 <= k <= the admitted machine count.
  double max_load_for_budget(double power_budget_w, size_t k,
                             Mask* mask = nullptr) const;

  // --- introspection for tests/benches ---
  /// Distinct particle classes (bitwise-equal (a, b)) in the whole room.
  size_t class_count() const { return class_rep_.size(); }
  size_t event_count() const { return table_.events.size(); }
  size_t segment_count() const { return table_.segments.size(); }
  const detail::ConsolidationTable& table() const { return table_; }
  const ParticleSystem& particles() const { return particles_; }
  const RoomModel& model() const { return *model_; }

 private:
  /// `mask`, else set_active's mask, else nullptr (the whole room).
  Mask* mask_or_stored(Mask* mask) const;

  SharedRoomModel model_;
  ParticleSystem particles_;
  std::vector<uint32_t> class_rep_;  // class -> its lowest machine id
  detail::ConsolidationTable table_;
  std::vector<char> active_;  // set_active's mask; empty until then
  mutable Mask stored_;       // bound to active_
};

}  // namespace coolopt::core
