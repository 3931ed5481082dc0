// The exact power floor that stops the Algorithm 2 k-scans
// (ClassSelector::power_floor). The floor is the scan's own power
// expression with the subset run at the warmest allowed air. Every rounded
// step of that expression is monotone, so at any load the floor never
// decreases in k and never exceeds the power of any feasible k' >= k at
// its operating time. Both claims are checked here as exact double
// comparisons, with no tolerance, on seeded synthetic and SKU rooms
// (n = 1..200), at loads of 0, at the reference table's segment starts,
// low enough to pin t_ac at t_ac_max, and at
// capacity, under every cooler variant the argument leans on, for both idle
// folds production uses (k * w2 and the iterated w2 prefix). The production
// query_best_into must then equal the unpruned scan bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "tests/core/consolidation_support.h"

namespace coolopt::core {
namespace {

using test_support::CoolerVariant;
using test_support::kCoolerVariants;
using test_support::seeded_room;
using test_support::sku_room;
using test_support::with_cooler;

/// Loads where the bound could be tight: none, every segment start of a
/// few k in the reference table (sampled when it has many segments), loads
/// at and below g_k(t_hi) that pin t_ac at t_ac_max, fractions of the
/// largest servable load, that load itself and the room's capacity.
std::vector<double> probe_loads(const IncrementalConsolidator& cons) {
  const detail::ClassSelector& select = cons.table();
  const ParticleSystem& ps = cons.particles();
  const ConsolidationTable table = reference_table(ps);
  const size_t n = select.width();
  const size_t ks[] = {1, (n + 1) / 2, n};
  std::vector<double> loads = {0.0, cons.model().total_capacity(),
                               select.g(ps, n, ps.t_lo)};
  const size_t step = std::max<size_t>(1, table.segments.size() / 12);
  for (size_t s = 0; s < table.segments.size(); s += step) {
    for (const size_t k : ks) {
      loads.push_back(table.g(k, table.segments[s].start));
    }
  }
  for (const size_t k : ks) {
    const double pinned = select.g(ps, k, ps.t_hi);
    loads.push_back(pinned);
    loads.push_back(0.5 * pinned);
  }
  for (const double f : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    loads.push_back(f * select.g(ps, n, ps.t_lo));
  }
  std::erase_if(loads, [](double l) { return !(l >= 0.0) || !std::isfinite(l); });
  return loads;
}

/// Checks the lemma at one load for one idle fold; returns false (after
/// one ADD_FAILURE naming the k) on the first violation. Each feasible k's
/// power is the scan's expression with that fold at the k's operating time.
bool floor_holds(const IncrementalConsolidator& cons, double load,
                 const std::vector<double>& fold, const std::string& what) {
  const detail::ClassSelector& select = cons.table();
  const ParticleSystem& ps = cons.particles();
  const RoomModel& model = cons.model();
  const size_t n = select.width();
  std::vector<double> floors(n + 1);
  std::vector<double> powers(n + 1, std::numeric_limits<double>::infinity());
  std::vector<RankEntry> ranked;
  select.rank_all_k_into(ps, model, load, ranked);
  ConsolidationChoice choice;
  for (const RankEntry& e : ranked) {
    select.make_choice_into(ps, model, e.t, e.k, load, choice);
    const double heat = fold[e.k] + ps.w1 * load;
    powers[e.k] = heat + model.cooler.predict(choice.t_ac, heat);
  }
  for (size_t k = 1; k <= n; ++k) {
    floors[k] = detail::ClassSelector::power_floor(ps, model, load, fold[k]);
    if (k > 1 && !(floors[k - 1] <= floors[k])) {
      ADD_FAILURE() << what << ": floor decreases at k " << k << " (load "
                    << load << ")";
      return false;
    }
  }
  double min_after = std::numeric_limits<double>::infinity();
  for (size_t k = n; k >= 1; --k) {
    min_after = std::min(min_after, powers[k]);
    if (!(floors[k] <= min_after)) {
      ADD_FAILURE() << what << ": floor at k " << k << " exceeds a later "
                    << "feasible power (load " << load << ")";
      return false;
    }
  }
  if (model.cooler.q_coeff < 0.0 && floors[n] != -HUGE_VAL) {
    ADD_FAILURE() << what << ": a negative q_coeff must prune nothing";
    return false;
  }
  return true;
}

/// The lemma at every probe load and both folds, then the production
/// query against the unpruned scan at the same loads.
void check_room(const RoomModel& room, const std::string& what) {
  const IncrementalConsolidator cons(share_model(room));
  const ParticleSystem& ps = cons.particles();
  const size_t n = cons.table().width();
  std::vector<double> product(n + 1);
  std::vector<double> iterated(n + 1, 0.0);
  for (size_t k = 1; k <= n; ++k) {
    product[k] = static_cast<double>(k) * ps.w2;
    iterated[k] = iterated[k - 1] + ps.w2;
  }
  for (const double load : probe_loads(cons)) {
    if (!floor_holds(cons, load, product, what + " (k * w2)") ||
        !floor_holds(cons, load, iterated, what + " (w2 prefix)")) {
      return;
    }
    SCOPED_TRACE(what);
    test_support::expect_best_matches_unpruned(cons.table(), ps, cons.model(),
                                               load);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(PowerFloor, BoundsEveryLaterKOnSkuRooms) {
  for (const CoolerVariant v : kCoolerVariants) {
    for (size_t n = 1; n <= 200; ++n) {
      check_room(with_cooler(sku_room(n, n), v),
                 "sku n " + std::to_string(n) + ", " + to_string(v));
      if (HasFailure()) return;
    }
  }
}

TEST(PowerFloor, BoundsEveryLaterKOnSeededRooms) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (const size_t n : {56, 80, 120}) sizes.push_back(n);
  for (const CoolerVariant v : kCoolerVariants) {
    for (const size_t n : sizes) {
      check_room(with_cooler(seeded_room(n, 3000 + n), v),
                 "seeded n " + std::to_string(n) + ", " + to_string(v));
      if (HasFailure()) return;
    }
  }
}

TEST(PowerFloor, NegativeHeatTermPrunesNothing) {
  const RoomModel room =
      with_cooler(seeded_room(12, 5), CoolerVariant::kNegativeHeatTerm);
  const IncrementalConsolidator cons(share_model(room));
  for (const double load : {0.0, 100.0, 300.0}) {
    EXPECT_EQ(detail::ClassSelector::power_floor(cons.particles(), room, load,
                                                 36.0),
              -HUGE_VAL);
  }
}

}  // namespace
}  // namespace coolopt::core
