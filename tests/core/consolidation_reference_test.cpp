// The Algorithm 1 owner against an independent reference: the paper's
// preprocessing (enumerate every pair, sort the duplicated crossing-time
// list, collapse, build) must produce the same table as
// IncrementalConsolidator's cold build, byte for byte, on seeded rooms
// (n = 1..64), SKU rooms and chained crossing times (the identical-machine
// and one-machine rooms are checked in consolidation_edge_test.cpp). On
// rooms small enough to enumerate, every query the owner answers — the
// exact query, the ranking's head, the paper's Algorithm 2 over an
// on-demand allStatus index, and maxL — is certified against
// BruteForceConsolidator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/incremental.h"
#include "tests/core/consolidation_support.h"
#include "tests/oracle/consolidation.h"

namespace coolopt::core {
namespace {

using test_support::best_of;
using test_support::expect_tables_identical;
using test_support::model_from_particles;
using test_support::paper_query;
using test_support::ranking_of;
using test_support::seeded_room;
using test_support::sku_room;

/// The owner's cold build equals the reference build of the same room.
void expect_matches_reference(const RoomModel& room) {
  const IncrementalConsolidator cons(share_model(room));
  expect_tables_identical(cons.particles(), cons.table(),
                          reference_table(cons.particles()));
}

TEST(ReferenceTable, SeededRoomsMatchTheColdBuild) {
  for (size_t n = 1; n <= 64; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_matches_reference(seeded_room(n, 1000 + n));
  }
}

TEST(ReferenceTable, SkuRoomsMatchTheColdBuild) {
  for (const size_t n : {size_t{200}, size_t{1250}}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const RoomModel room = sku_room(n, 1);
    const IncrementalConsolidator cons(share_model(room));
    const detail::ConsolidationTable reference =
        reference_table(cons.particles());
    // Premise: the duplicated list really collapses (many pairs share one
    // crossing time), so the class pairs and the machine pairs hand the
    // collapse different inputs.
    ASSERT_GT(reference.events.size(), 0u);
    ASSERT_LT(reference.events.size(), n);
    expect_tables_identical(cons.particles(), cons.table(), reference);
  }
}

TEST(ReferenceTable, ChainedCrossingTimesCollapseAlike) {
  // Particle 0 (b = 2) is crossed by particles 1..5 (b = 1, parallel among
  // themselves) at t = 1 + j * 4e-13: neighbours sit closer than
  // kEventMergeEps, while the chain spans more than it. Particle 6 copies
  // particle 1, so t = 1 + 4e-13 also appears twice in the duplicated list.
  const double step = 0.4 * detail::kEventMergeEps;
  std::vector<double> a = {10.0};
  std::vector<double> b = {2.0};
  for (int j = 1; j <= 5; ++j) {
    a.push_back(9.0 - j * step);
    b.push_back(1.0);
  }
  a.push_back(a[1]);
  b.push_back(b[1]);
  const RoomModel room = model_from_particles(a, b);
  const IncrementalConsolidator cons(share_model(room));
  const detail::ConsolidationTable reference =
      reference_table(cons.particles());
  // Kept: the first time, then the first one >= kEventMergeEps past it.
  ASSERT_EQ(reference.events.size(), 2u);
  expect_tables_identical(cons.particles(), cons.table(), reference);
}

TEST(ReferenceTable, SmallRoomQueriesAgreeWithBruteForce) {
  for (size_t n = 1; n <= 12; ++n) {
    for (const uint64_t seed : {uint64_t{300}, uint64_t{301}, uint64_t{302}}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", seed " +
                   std::to_string(seed));
      const RoomModel room = seeded_room(n, seed + n);
      const IncrementalConsolidator cons(share_model(room));
      const BruteForceConsolidator brute(room);
      for (const double frac : {0.08, 0.22, 0.47, 0.71, 0.93}) {
        const double load = room.total_capacity() * frac;
        const auto exact = best_of(cons, load);
        const auto slow = brute.best(load);
        ASSERT_EQ(exact.has_value(), slow.has_value()) << "frac " << frac;
        const std::vector<ConsolidationChoice> ranked = ranking_of(cons, load);
        ASSERT_EQ(ranked.empty(), !exact.has_value());
        const auto paper = paper_query(cons, load);
        if (!exact) {
          EXPECT_FALSE(paper.has_value());
          continue;
        }
        EXPECT_NEAR(exact->predicted_total_power_w,
                    slow->predicted_total_power_w, 1e-6)
            << "frac " << frac;
        EXPECT_NEAR(ranked.front().predicted_total_power_w,
                    slow->predicted_total_power_w, 1e-6)
            << "frac " << frac;
        // The paper's O(lg n) shortcut is feasible and never beats the
        // enumerated optimum.
        ASSERT_TRUE(paper.has_value()) << "frac " << frac;
        EXPECT_GE(paper->predicted_total_power_w,
                  slow->predicted_total_power_w - 1e-9);
        const auto check =
            evaluate_consolidation_subset(room, paper->on_set, load);
        ASSERT_TRUE(check.has_value());
        EXPECT_NEAR(check->predicted_total_power_w,
                    paper->predicted_total_power_w, 1e-6);
      }
      // maxL: at just below the returned load, the enumerated best k-subset
      // fits the budget.
      for (size_t k = 1; k <= n; k += 2) {
        for (const double budget : {500.0, 900.0, 1400.0}) {
          const double l_max = cons.max_load_for_budget(budget, k);
          if (l_max <= 0.0) continue;
          const auto slow = brute.best_of_size(l_max * 0.999, k);
          ASSERT_TRUE(slow.has_value()) << "k " << k << ", budget " << budget;
          EXPECT_LE(slow->predicted_total_power_w, budget + 1.0)
              << "k " << k << ", budget " << budget;
        }
      }
    }
  }
}

}  // namespace
}  // namespace coolopt::core
