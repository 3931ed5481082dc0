// The power-floor stop of ClassSelector::query_best_into against the
// unpruned scan, through masked views. A seeded quarantine churn walk
// moves a View over one selector one to three machines per step (every
// ninth step a large jump); at every step and at loads from 0 to the
// largest servable one, including g_k at each k's operating time for
// another load, the production query must return the unpruned scan's k,
// subset, time and power to the last bit, under every cooler variant the
// floor's exactness argument leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "tests/core/consolidation_support.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

using test_support::CoolerVariant;
using test_support::kCoolerVariants;
using test_support::seeded_room;
using test_support::sku_room;
using test_support::with_cooler;

void check_churn(const RoomModel& room, uint64_t seed, size_t steps) {
  const IncrementalConsolidator cons(share_model(room));
  const ParticleSystem& ps = cons.particles();
  const detail::ClassSelector& select = cons.table();
  const size_t n = ps.size();
  util::Rng rng(seed);
  std::vector<char> active(n, 1);
  IncrementalConsolidator::View view;
  std::vector<RankEntry> ranked;
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("churn step " + std::to_string(step));
    if (step > 0) {
      const size_t flips =
          step % 9 == 8 ? n / 2 : 1 + static_cast<size_t>(rng.next_u64() % 3);
      for (size_t f = 0; f < flips; ++f) {
        active[static_cast<size_t>(rng.next_u64() % n)] ^= 1;
      }
      active[step % n] = 1;  // never empty
    }
    view.reset(select, active);
    const size_t width = select.width(&view);
    const double most = select.g(ps, width, ps.t_lo, &view);
    std::vector<double> loads = {0.0, most};
    for (const double f : {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}) {
      loads.push_back(f * most);
    }
    // g_k at other k's operating times: loads whose root sits on a
    // breakpoint of the fill.
    select.rank_all_k_into(ps, cons.model(), rng.uniform(0.1, 0.9) * most,
                           ranked, &view);
    for (const RankEntry& e : ranked) {
      for (const size_t k : {size_t{1}, (width + 1) / 2, width}) {
        loads.push_back(select.g(ps, k, e.t, &view));
      }
      if (loads.size() > 40) break;
    }
    for (const double load : loads) {
      if (!(load >= 0.0)) continue;
      test_support::expect_best_matches_unpruned(select, ps, cons.model(),
                                                 load, &view);
    }
    if (testing::Test::HasFailure()) return;
  }
}

TEST(PowerFloorChurn, SkuRoomMatchesTheUnprunedScan) {
  for (const CoolerVariant v : kCoolerVariants) {
    SCOPED_TRACE(to_string(v));
    check_churn(with_cooler(sku_room(200, 1), v), 31, 60);
    if (HasFailure()) return;
  }
}

TEST(PowerFloorChurn, SeededRoomMatchesTheUnprunedScan) {
  for (const CoolerVariant v : kCoolerVariants) {
    SCOPED_TRACE(to_string(v));
    check_churn(with_cooler(seeded_room(40, 77), v), 37, 60);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace coolopt::core
