// The on-demand select against an independent reference: the paper's
// Algorithm 1 (enumerate every pair, sort the duplicated crossing-time
// list, collapse, build the segment table) answers every query the select
// answers, within ROADMAP item 2's gate (same feasible k, each subset
// listed as the table lists it: exactly at loads across the range, and up
// to machines tied at the operating time for the one k a segment-boundary
// load puts on a crossing; powers within 1e-12 relative, the same head
// wherever the runner-up trails by more than 1e-9 relative, maxL within
// 1e-9 relative). Rooms:
// seeded distinct rooms n = 1..64, 96, 128 and 256, SKU rooms n = 200, 1250
// and 2000, and chained crossing times within kEventMergeEps; loads across
// the range and exactly at the table's segment boundaries (the identical-
// machine and one-machine rooms are checked in consolidation_edge_test.cpp).
// On rooms small enough to enumerate, every query the select answers — the
// exact query, the ranking's head, the paper's Algorithm 2 over an
// on-demand allStatus index, and maxL — is certified against
// BruteForceConsolidator. The oracle's class-pair build, which the scale
// bench rebuilds large SKU rooms with, equals the every-pair build.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "tests/core/consolidation_support.h"
#include "tests/oracle/consolidation.h"

namespace coolopt::core {
namespace {

using test_support::best_of;
using test_support::expect_select_matches_table;
using test_support::model_from_particles;
using test_support::paper_query;
using test_support::ranking_of;
using test_support::seeded_room;
using test_support::sku_room;

/// The select over `room` against the reference build of the same room,
/// at fractions of the largest servable load and at the loads that put a
/// few k exactly on sampled segment boundaries. A fraction puts no k on a
/// crossing, so every listing must be the table's exactly; a boundary load
/// puts its one k there, where two tied machines may be listed either way.
/// Returns how many listings differed on such a tie.
size_t expect_matches_reference(const RoomModel& room) {
  const IncrementalConsolidator cons(share_model(room));
  const ParticleSystem& ps = cons.particles();
  const ConsolidationTable reference = reference_table(ps);
  const size_t n = reference.width();
  for (const double f : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double load = f * reference.g(n, ps.t_lo);
    if (!(load >= 0.0)) continue;
    EXPECT_EQ(expect_select_matches_table(cons.table(), nullptr, ps, room,
                                          reference, load),
              0u)
        << "listings differ at fraction " << f;
  }
  size_t ties = 0;
  const size_t stride = 1 + reference.segments.size() / 8;
  for (size_t s = 0; s < reference.segments.size(); s += stride) {
    for (const size_t k : {size_t{1}, (n + 1) / 2, n}) {
      const double load = reference.g(k, reference.segments[s].start);
      if (!(load >= 0.0)) continue;
      const size_t differed = expect_select_matches_table(
          cons.table(), nullptr, ps, room, reference, load);
      EXPECT_LE(differed, 1u) << "segment " << s << ", k " << k;
      ties += differed;
      if (testing::Test::HasFailure()) return ties;
    }
  }
  return ties;
}

TEST(ReferenceTable, SeededRoomsMatchTheColdBuild) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (const size_t n : {96, 128, 256}) sizes.push_back(n);
  size_t ties = 0;
  for (const size_t n : sizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    ties += expect_matches_reference(seeded_room(n, 1000 + n));
    if (HasFailure()) return;
  }
  RecordProperty("boundary_listing_ties", static_cast<int>(ties));
}

TEST(ReferenceTable, SkuRoomsMatchTheColdBuild) {
  for (const size_t n : {size_t{200}, size_t{1250}, size_t{2000}}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const RoomModel room = sku_room(n, 1);
    // Premise: many pairs share one crossing time.
    const ConsolidationTable reference =
        reference_table(ParticleSystem::from_model(room));
    ASSERT_GT(reference.events.size(), 0u);
    ASSERT_LT(reference.events.size(), n);
    RecordProperty("boundary_listing_ties_n" + std::to_string(n),
                   static_cast<int>(expect_matches_reference(room)));
  }
}

TEST(ReferenceTable, ClassPairBuildEqualsEveryPairBuild) {
  // The oracle's fast build for large SKU rooms (perf_scale's rebuild)
  // against the paper's every-pair enumeration: the same events and the
  // same segment orders, bit for bit, over every machine and over a
  // subset that empties one class.
  const auto expect_same = [](const ParticleSystem& ps,
                              const std::vector<uint32_t>& ids) {
    const ConsolidationTable want = reference_table(ps, ids);
    const ConsolidationTable got = class_pair_table(ps, ids);
    ASSERT_EQ(got.events.size(), want.events.size());
    for (size_t e = 0; e < want.events.size(); ++e) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.events[e]),
                std::bit_cast<uint64_t>(want.events[e]));
    }
    ASSERT_EQ(got.segments.size(), want.segments.size());
    for (size_t s = 0; s < want.segments.size(); ++s) {
      EXPECT_EQ(got.segments[s].order, want.segments[s].order);
    }
  };
  for (const RoomModel& room :
       {seeded_room(40, 7), sku_room(200, 1), sku_room(1250, 2)}) {
    SCOPED_TRACE("n = " + std::to_string(room.size()));
    const ParticleSystem ps = ParticleSystem::from_model(room);
    std::vector<uint32_t> ids(ps.size());
    for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    expect_same(ps, ids);
    // Drop every machine of machine 0's particle.
    std::erase_if(ids, [&](uint32_t i) {
      return ps.a[i] == ps.a[0] && ps.b[i] == ps.b[0];
    });
    expect_same(ps, ids);
  }
}

TEST(ReferenceTable, ChainedCrossingTimesCollapseAlike) {
  // Particle 0 (b = 2) is crossed by particles 1..5 (b = 1, parallel among
  // themselves) at t = 1 + j * 4e-13: neighbours sit closer than
  // kEventMergeEps, while the chain spans more than it. Particle 6 copies
  // particle 1, so t = 1 + 4e-13 also appears twice in the duplicated list.
  const double step = 0.4 * kEventMergeEps;
  std::vector<double> a = {10.0};
  std::vector<double> b = {2.0};
  for (int j = 1; j <= 5; ++j) {
    a.push_back(9.0 - j * step);
    b.push_back(1.0);
  }
  a.push_back(a[1]);
  b.push_back(b[1]);
  const RoomModel room = model_from_particles(a, b);
  const ConsolidationTable reference =
      reference_table(ParticleSystem::from_model(room));
  // Kept: the first time, then the first one >= kEventMergeEps past it.
  ASSERT_EQ(reference.events.size(), 2u);
  expect_matches_reference(room);
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
