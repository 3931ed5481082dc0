// SolveScratch — the per-thread arena behind the zero-allocation solve path.
//
// Every buffer the engine's dispatch loop historically materialized per
// call (quarantine masks, filtered sort orders, probe subsets, the
// consolidation ranking, closed-form and bounded-solver workspaces) lives
// here instead, grow-only: a buffer is cleared and refilled in place,
// never shrunk, so once a scratch has seen the largest request shape it
// will ever serve, subsequent solves perform no heap allocation at all.
// PlanEngine::solve() uses the calling thread's scratch
// (SolveScratch::local()); solve_batch workers each use their own, so the
// arena is never shared across threads and needs no locking.
//
// The arena only changes WHERE intermediates live, never WHAT is computed:
// every consumer funnels through the same `_into` entry points the
// allocating convenience wrappers call, so plans are bit-for-bit identical
// with or without a warm scratch (pinned by the determinism suites).
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocation.h"
#include "core/bounded.h"
#include "core/closed_form.h"
#include "core/class_selector.h"
#include "core/scenario.h"

namespace coolopt::core {

struct SolveScratch {
  // --- restricted (quarantine) solves ---
  /// 1 = survivor, 0 = quarantined.
  std::vector<char> mask;
  /// The distinct quarantined machines, in first-listed order.
  std::vector<size_t> quarantined;
  /// The survivors in index order and in coolness order, and the index-order
  /// fold of their capacities: built on demand (PlanEngine::survivor_lists),
  /// empty until then.
  std::vector<size_t> allowed;
  std::vector<size_t> order;
  double allowed_capacity = 0.0;
  // --- compute_plan-level buffers ---
  std::vector<size_t> capacity_order;   ///< filtered capacity-descending
  std::vector<size_t> idle_order;       ///< filtered idle-draw ascending
  /// The fixed rules' consolidation ON set, the table subset the walk
  /// probes, or the degraded Optimal solve's forced one (every machine that
  /// survives at t_ac_min).
  std::vector<size_t> subset;
  std::vector<RankEntry> ranked;  ///< consolidation walk candidates, <= 1 per k
  /// The consolidation walk's view of the on-demand select: every machine,
  /// or the survivors in `mask`; reset once per walk, sized once per room.
  detail::ClassSelector::View select;
  // --- solver workspaces and result slots ---
  Allocation best_alloc;   ///< incumbent of the candidate walk
  Allocation trial_alloc;  ///< probe under evaluation (swapped on improve)
  ClosedFormResult cf;
  BoundedWorkspace bounded;

  /// Sizes every Allocation slot, the subset and the ranking for an
  /// n-machine room, grow-only, as BoundedWorkspace sizes itself; the engine
  /// calls it at the end of every solve. The slots trade buffers with each
  /// other and with the caller's results, so without it a slot this thread
  /// has not used yet, or one a fresh result's empty buffer landed in, would
  /// grow inside a later warm solve (the first bounded solve of a worker that
  /// had only served closed-form answers), and the subset and the ranking
  /// would grow with each larger k, or each lower load, the thread meets.
  void reserve_for(size_t n);

  /// Resident heap footprint of the arena (capacities, not sizes) —
  /// exported as the `engine.alloc_bytes` gauge after each solve.
  size_t bytes() const;

  /// The calling thread's scratch (thread_local; created on first use,
  /// freed at thread exit). ThreadPool workers and serial callers each get
  /// their own, which is what makes the zero-allocation property hold
  /// without any synchronization.
  static SolveScratch& local();
};

}  // namespace coolopt::core
