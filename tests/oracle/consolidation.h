// Test oracles for optimal load consolidation (Section III-B of the paper):
// choose which subset of machines to keep ON so that total predicted energy
// is minimal. evaluate_consolidation_subset scores one subset,
// BruteForceConsolidator enumerates them all, and all_status / query_paper
// are the paper's Algorithm 2 over a table, reference_table is the paper's
// Algorithm 1 over every machine pair (consolidation_table.h), and
// unpruned_best_into is the exact per-k scan without its power-floor stop;
// the planner's own query is the on-demand select of core/class_selector.h
// behind core/incremental.h.
//
// Reduction (Eq. 23): with uniform w1/w2, the predicted total power of a
// subset S serving load L is
//
//   P(S, L) = |S| * w2 - rho * t_S + theta,
//     rho   = cfac * w1,
//     t_S   = (sum_S a_i - L) / (sum_S b_i),
//     a_i   = K_i (Eq. 19),   b_i = alpha_i / beta_i,
//     theta = cfac * T_SP + w1 * L  (subset-independent).
//
// t_S is the "particle time": machine i is a particle at coordinate
// x_i(t) = a_i - b_i t, and x_i(t_S) is exactly the optimal load L_i* of
// Eq. 22. Maximizing t_S for fixed |S| = picking the k largest coordinates
// at the fixed point; the top-k set only changes when two particles cross,
// so there are O(n^2) crossing events and O(n^2) coordinate orders in
// total. Algorithm 1 precomputes them in O(n^3 lg n) (reference_table);
// Algorithm 2 answers a load query by binary search over the allStatus
// list (query_paper below). The planner runs the exact per-k queries
// (query_best_into, rank_all_k_into) on demand instead, each k a short
// Newton search over the particle classes (IncrementalConsolidator).
//
// Physical actuation limits enter as bounds on the particle time:
// t in [t_ac_min/w1, t_ac_max/w1]. Below the lower bound the subset cannot
// serve the load within T_max at any allowed cool-air temperature
// (infeasible); above the upper bound the room simply runs at t_ac_max with
// every machine below T_max (the time is clamped). Machine capacities are
// NOT modeled here (the paper's reduction has no room for them); callers
// needing hard capacity guarantees re-solve the returned subset with
// BoundedOptimizer and fall back to the ranked alternatives
// (rank_all_k_into).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/class_selector.h"
#include "core/model.h"
#include "tests/oracle/consolidation_table.h"

namespace coolopt::core {

/// Predicted total power of an explicit subset serving `load`, with the
/// particle time clamped into the actuation range. std::nullopt when the
/// subset cannot serve the load under the temperature ceiling.
std::optional<ConsolidationChoice> evaluate_consolidation_subset(
    const RoomModel& model, const std::vector<size_t>& subset, double load);

/// One (segment start, k) entry of the paper's allStatus list.
struct PaperStatus {
  double l_max = 0.0;
  uint32_t segment = 0;
  uint32_t k = 0;
};

/// The paper's allStatus list for a table: one (segment start, k) entry per
/// segment and k, sorted by Lmax — Algorithm 2's index (segments x width()
/// entries).
std::vector<PaperStatus> all_status(const ConsolidationTable& table);

/// The paper's Algorithm 2: binary search over an all_status() list of
/// `table`. O(lg n) per query once the list is built; the reference the
/// exact per-k queries are measured against.
std::optional<ConsolidationChoice> query_paper(
    const ConsolidationTable& table, const ParticleSystem& ps,
    const RoomModel& model, const std::vector<PaperStatus>& statuses,
    double load);

/// Algorithm 1 as the paper states it, with no class grouping: enumerate
/// every pair of the given (ascending) ids, p < q, for its crossing time in
/// t > 0, sort the duplicated list, collapse it, then build over those
/// machines: the reference the on-demand select is held against.
ConsolidationTable reference_table(const ParticleSystem& ps,
                                   const std::vector<uint32_t>& ids);

/// The reference build over every machine.
ConsolidationTable reference_table(const ParticleSystem& ps);

/// reference_table(ps, ids) with one crossing time per pair of distinct
/// particles (bitwise (a, b), each represented by its lowest id) instead of
/// per pair of machines: O(D^2) divisions for D distinct particles, so an
/// SKU room of 10,000 machines builds in milliseconds. Equal to the
/// reference bit for bit: under round-to-nearest fl(x - y) = -fl(y - x) and
/// fl((-x) / (-y)) = fl(x / y), so every member pair of two classes crosses
/// at the representatives' time whichever has the lower id, members of one
/// class never cross, and a duplicated time never moves the collapse's
/// anchor.
ConsolidationTable class_pair_table(const ParticleSystem& ps,
                                    const std::vector<uint32_t>& ids);

/// ClassSelector::query_best_into without its power-floor stop: the head
/// of the full ranking over every feasible k (rank_all_k_into, which folds
/// the idle draw as scan_head does when ps.w2_identical), materialized by
/// make_choice_into, over the machines `view` admits (every machine
/// without one). The reference the pruned scan must reproduce bit for bit;
/// false when no k is feasible. Throws std::invalid_argument unless
/// ps.w2_identical.
bool unpruned_best_into(const detail::ClassSelector& select,
                        const ParticleSystem& ps, const RoomModel& model,
                        double load, ConsolidationChoice& out,
                        detail::ClassSelector::View* view = nullptr);

/// Exact exponential-time reference (the paper's "naive O(n 2^n)"): used by
/// the property tests to certify the event-based algorithm. Guarded to
/// n <= 20.
class BruteForceConsolidator {
 public:
  explicit BruteForceConsolidator(RoomModel model);

  /// Best subset over all 2^n - 1 non-empty subsets, or nullopt if no
  /// subset can serve the load.
  std::optional<ConsolidationChoice> best(double load) const;

  /// Best subset of exactly k machines.
  std::optional<ConsolidationChoice> best_of_size(double load, size_t k) const;

 private:
  RoomModel model_;
};

}  // namespace coolopt::core
