// Incremental Algorithm 1 vs the cold rebuild: the delta-maintained
// event/segment table must be BIT-FOR-BIT identical to the table a fresh
// build produces at the same active set, for any churn history — and the
// plans the engine derives from it must be identical at any worker count.
#include "core/incremental.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/synthetic.h"
#include "tests/core/consolidation_support.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

using test_support::expect_tables_identical;
using test_support::ranking_of;

/// SKU-structured fleet: `skus` distinct machine classes replicated across
/// `machines` slots, the regime where crossing-time multiplicities are high
/// and quarantine churn usually leaves the collapsed event list unchanged
/// (exercising the order-patching fast path, not just full rebuilds).
RoomModel sku_model(size_t machines, size_t skus, uint64_t seed) {
  SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  RoomModel model = make_synthetic_model(opt);
  for (size_t i = skus; i < model.size(); ++i) {
    model.machines[i] = model.machines[i % skus];
  }
  return model;
}

/// Fully heterogeneous fleet (every machine its own class): every delta
/// changes the event list, exercising the rebuild path.
RoomModel diverse_model(size_t machines, uint64_t seed) {
  SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  return make_synthetic_model(opt);
}

void expect_choices_identical(const std::vector<ConsolidationChoice>& a,
                              const std::vector<ConsolidationChoice>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("choice " + std::to_string(i));
    EXPECT_EQ(a[i].k, b[i].k);
    EXPECT_EQ(a[i].on_set, b[i].on_set);
    EXPECT_EQ(a[i].t_param, b[i].t_param);
    EXPECT_EQ(a[i].t_ac, b[i].t_ac);
    EXPECT_EQ(a[i].predicted_total_power_w, b[i].predicted_total_power_w);
  }
}

void expect_results_identical(const PlanResult& a, const PlanResult& b,
                              size_t index) {
  SCOPED_TRACE("request " + std::to_string(index));
  ASSERT_EQ(a.error, b.error);
  EXPECT_EQ(a.shed_load, b.shed_load);
  EXPECT_EQ(a.shard, b.shard);
  ASSERT_EQ(a.plan.has_value(), b.plan.has_value());
  if (!a.plan) return;
  EXPECT_EQ(a.plan->allocation.on, b.plan->allocation.on);
  EXPECT_EQ(a.plan->allocation.loads, b.plan->allocation.loads);
  EXPECT_EQ(a.plan->allocation.t_ac, b.plan->allocation.t_ac);
  EXPECT_EQ(a.plan->allocation.total_power_w, b.plan->allocation.total_power_w);
}

/// Seeded churn driver shared by the SKU and diverse cases: after every
/// delta the live table must equal a from-scratch build at the same mask.
void run_churn(const RoomModel& room, uint64_t seed, size_t steps,
               size_t* fast_paths) {
  const SharedRoomModel model = share_model(room);
  const size_t n = model->size();
  const double capacity = model->total_capacity();

  IncrementalConsolidator inc(model);
  std::vector<char> mask(n, 1);
  inc.set_active(mask);

  util::Rng rng(seed);
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("churn step " + std::to_string(step));
    // 1-3 join/leave/quarantine toggles per supervisor cycle.
    const size_t flips = 1 + static_cast<size_t>(rng.next_u64() % 3);
    for (size_t f = 0; f < flips; ++f) {
      mask[static_cast<size_t>(rng.next_u64() % n)] ^= 1;
    }
    mask[step % n] = 1;  // keep the active set non-trivial
    mask[(step + 1) % n] = 1;

    const IncrementalApplyStats stats = inc.set_active(mask);
    if (fast_paths != nullptr && !stats.cold_rebuild &&
        !stats.events_changed && (stats.removed + stats.restored) > 0) {
      ++*fast_paths;
    }

    IncrementalConsolidator rebuilt(model);
    rebuilt.set_active(mask);
    ASSERT_EQ(inc.active_ids(), rebuilt.active_ids());
    expect_tables_identical(inc.particles(), inc.table(), rebuilt.table());
    for (const double frac : {0.25, 0.6, 0.9}) {
      const std::vector<ConsolidationChoice> ranked =
          ranking_of(inc, frac * capacity);
      expect_choices_identical(ranked, ranking_of(rebuilt, frac * capacity));
      // The O(n lg) single-winner query must agree with the head of the
      // full O(n^2) ranking (it's what a one-delta replan actually runs).
      ConsolidationChoice best;
      const bool got = inc.query_best_into(frac * capacity, best);
      ASSERT_EQ(got, !ranked.empty());
      if (got) expect_choices_identical({best}, {ranked.front()});
    }
  }
}

TEST(IncrementalConsolidator, SkuChurnMatchesColdRebuildBitForBit) {
  size_t fast_paths = 0;
  run_churn(sku_model(24, 4, 11), /*seed=*/1234, /*steps=*/60, &fast_paths);
  // The whole point of the SKU case: the order-patching fast path (events
  // unchanged) must actually fire, or this test proves nothing about it.
  EXPECT_GT(fast_paths, 0u);
}

TEST(IncrementalConsolidator, DiverseChurnMatchesColdRebuildBitForBit) {
  run_churn(diverse_model(16, 29), /*seed=*/77, /*steps=*/40, nullptr);
}

/// An IncrementalConsolidator cold-built at `mask`: moving it there from a
/// one-machine set is a delta over most of the fleet, which set_active
/// answers with a cold build.
IncrementalConsolidator cold_at(const SharedRoomModel& model,
                                const std::vector<char>& mask) {
  IncrementalConsolidator cold(model);
  std::vector<char> one(mask.size(), 0);
  one[0] = 1;
  EXPECT_TRUE(cold.set_active(one).cold_rebuild);
  EXPECT_TRUE(cold.set_active(mask).cold_rebuild);
  return cold;
}

void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << what;
}

/// A delta leaves each segment's prefix sums stale from its first changed
/// position, and only the first read past it refolds them. A one-machine
/// quarantine walk on an SKU room (8 classes over 400 slots) runs two or
/// three deltas between some reads, so a segment's watermark must drop to
/// the lowest position any of them changed; the head query reads a few
/// segments, leaving the rest stale across reads too. At every read the
/// head and each ranking entry must be a cold build's to the bit, and the
/// table, folded at the end, must equal it.
TEST(IncrementalConsolidator, DeferredRefoldSurvivesRunsOfUnreadDeltas) {
  const SharedRoomModel model = share_model(sku_model(400, 8, 17));
  const size_t n = model->size();
  const double capacity = model->total_capacity();
  IncrementalConsolidator inc(model);
  std::vector<char> mask(n, 1);
  util::Rng rng(2718);
  size_t deltas = 0;
  size_t fast_paths = 0;
  size_t unread_runs = 0;
  for (size_t read = 0; read < 40; ++read) {
    SCOPED_TRACE("read " + std::to_string(read));
    const size_t run = 1 + static_cast<size_t>(rng.next_u64() % 3);
    if (run > 1) ++unread_runs;
    for (size_t d = 0; d < run; ++d) {
      mask[static_cast<size_t>(rng.next_u64() % n)] ^= 1;
      const IncrementalApplyStats stats = inc.set_active(mask);
      ASSERT_EQ(stats.removed + stats.restored, 1u);
      ++deltas;
      if (!stats.cold_rebuild && !stats.events_changed) ++fast_paths;
    }
    const IncrementalConsolidator cold = cold_at(model, mask);
    const double load = rng.uniform(0.05, 0.95) * capacity;

    // The head first: it reads the fewest segments.
    ConsolidationChoice got;
    ConsolidationChoice want;
    const bool found = inc.query_best_into(load, got);
    ASSERT_EQ(found, cold.query_best_into(load, want)) << "load " << load;
    if (found) {
      EXPECT_EQ(got.k, want.k);
      EXPECT_EQ(got.segment, want.segment);
      EXPECT_EQ(got.on_set, want.on_set);
      expect_same_bits(got.t_param, want.t_param, "t_param");
      expect_same_bits(got.predicted_total_power_w,
                       want.predicted_total_power_w, "power");
    }
    std::vector<RankEntry> got_ranked;
    std::vector<RankEntry> want_ranked;
    inc.rank_all_k_into(load, got_ranked);
    cold.rank_all_k_into(load, want_ranked);
    ASSERT_EQ(got_ranked.size(), want_ranked.size());
    for (size_t i = 0; i < got_ranked.size(); ++i) {
      SCOPED_TRACE("entry " + std::to_string(i));
      EXPECT_EQ(got_ranked[i].k, want_ranked[i].k);
      EXPECT_EQ(got_ranked[i].segment, want_ranked[i].segment);
      expect_same_bits(got_ranked[i].predicted_total_power_w,
                       want_ranked[i].predicted_total_power_w, "power");
    }
    if (testing::Test::HasFailure()) return;
  }
  // Premises: runs of unread deltas happened, and they patched orders
  // (the path that defers the refold) rather than re-sorting segments.
  EXPECT_GT(unread_runs, 10u);
  EXPECT_EQ(fast_paths, deltas);
  expect_tables_identical(inc.particles(), inc.table(),
                          cold_at(model, mask).table());
}

/// The ranking folds the subset idle draw as a running sum only when every
/// w2 is the same double; a room whose w2 agree only within the uniformity
/// tolerance sums each subset machine by machine. Either way each entry's
/// power is make_choice_into's to the bit (ranking_of checks it).
TEST(IncrementalConsolidator, RankingPowersMatchChoicesWhateverTheW2Bits) {
  RoomModel room = sku_model(40, 4, 23);
  for (const bool identical : {true, false}) {
    SCOPED_TRACE(identical ? "identical w2" : "w2 within tolerance");
    if (!identical) {
      for (size_t i = 1; i < room.size(); i += 2) {
        room.machines[i].power.w2 *= 1.0 + 1e-9;
      }
    }
    const IncrementalConsolidator cons(share_model(room));
    ASSERT_EQ(cons.particles().w2_identical, identical);
    for (const double frac : {0.2, 0.5, 0.8}) {
      EXPECT_FALSE(ranking_of(cons, frac * room.total_capacity()).empty());
    }
  }
}

TEST(IncrementalConsolidator, BadMaskSizeNamesBothCounts) {
  IncrementalConsolidator inc(share_model(sku_model(8, 2, 3)));
  try {
    inc.set_active(std::vector<char>(5, 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5"), std::string::npos) << what;
    EXPECT_NE(what.find("8"), std::string::npos) << what;
  }
}

/// The engine-level guarantee: quarantined (restricted) solves route
/// through the incremental table, and the batch result is identical at
/// 1, 2 and 8 workers AND to a cold-cache engine solving each request
/// fresh — regardless of the order workers mutate the shared table in.
TEST(PlanEngine, QuarantinedBatchesAreWorkerCountInvariantAndIncremental) {
  const SharedRoomModel model = share_model(sku_model(20, 4, 5));
  const double capacity = model->total_capacity();
  const size_t n = model->size();

  util::Rng rng(4242);
  std::vector<PlanRequest> requests;
  for (size_t i = 0; i < 30; ++i) {
    std::vector<size_t> quarantined;
    const size_t q = static_cast<size_t>(rng.next_u64() % 5);
    for (size_t j = 0; j < q; ++j) {
      quarantined.push_back(static_cast<size_t>(rng.next_u64() % n));
    }
    requests.push_back(PlanRequest{Scenario::by_number(8),
                                   rng.uniform(0.1, 0.9) * capacity,
                                   std::move(quarantined)});
  }

  PlanEngine e1(model), e2(model), e8(model);
  std::vector<PlanResult> r1, r2, r8;
  e1.solve_batch_into(requests, r1, 1);
  e2.solve_batch_into(requests, r2, 2);
  e8.solve_batch_into(requests, r8, 8);
  ASSERT_EQ(r1.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    expect_results_identical(r1[i], r2[i], i);
    expect_results_identical(r1[i], r8[i], i);
    // Cold-cache reference: a brand-new engine whose first restricted
    // solve cold-builds the incremental table at exactly this mask.
    PlanEngine fresh(model);
    expect_results_identical(r1[i], fresh.solve(requests[i]), i);
  }

  const EngineCounters counters = e1.counters();
  EXPECT_GT(counters.incremental_replans, 0u);
  EXPECT_GT(counters.incremental_cold_builds, 0u);
}

}  // namespace
}  // namespace coolopt::core
