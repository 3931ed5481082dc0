// Masked consolidation queries vs the survivors' own: a query restricted to
// an active set through a View must answer BIT FOR BIT (indices mapped
// back) what the same query answers on a consolidator over a room of that
// set, for any churn history, and agree with the paper's reference table
// over the set — and the plans the engine derives from it must be
// identical at any worker count.
#include "core/incremental.h"

#include <gtest/gtest.h>

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

using test_support::admitted_ids;
using test_support::expect_select_matches_table;
using test_support::expect_view_is_survivors_query;
using test_support::ranking_of;
using test_support::survivors_room;

/// SKU-structured fleet: `skus` distinct machine classes replicated across
/// `machines` slots, the regime where crossing-time multiplicities are high
/// and quarantine churn usually leaves every class a member, so the
/// survivors keep every class.
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

/// Fully heterogeneous fleet (every machine its own class): every
/// quarantine empties a class.
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
/// step (1-3 toggles of the quarantine mask) the masked queries of the one
/// selector must equal the same queries on a consolidator over a room of
/// the survivors, bit for bit, and hold the oracle gate against the
/// paper's reference table over the survivors. The consolidator's own
/// queries, through the mask set_active stores, must agree too.
void run_churn(const RoomModel& room, uint64_t seed, size_t steps) {
  const SharedRoomModel model = share_model(room);
  const size_t n = model->size();
  const double capacity = model->total_capacity();

  IncrementalConsolidator inc(model);
  const ParticleSystem& ps = inc.particles();
  std::vector<char> active(n, 1);
  IncrementalConsolidator::View view;

  util::Rng rng(seed);
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("churn step " + std::to_string(step));
    const size_t flips = 1 + static_cast<size_t>(rng.next_u64() % 3);
    for (size_t f = 0; f < flips; ++f) {
      active[static_cast<size_t>(rng.next_u64() % n)] ^= 1;
    }
    active[step % n] = 1;  // keep the active set non-trivial
    active[(step + 1) % n] = 1;

    const std::vector<uint32_t> ids = admitted_ids(active);
    const IncrementalConsolidator own(share_model(survivors_room(room, ids)));
    const ConsolidationTable reference = reference_table(ps, ids);
    view.reset(inc.table(), active);
    inc.set_active(active);
    for (const double frac : {0.25, 0.6, 0.9}) {
      const double load = frac * capacity;
      expect_view_is_survivors_query(inc, view, own, ids, load);
      EXPECT_EQ(expect_select_matches_table(inc.table(), &view, ps, *model,
                                            reference, load),
                0u);
      // The stored mask answers as the caller's: the head of the full
      // ranking, each entry's power its choice's (ranking_of checks it).
      const std::vector<ConsolidationChoice> ranked =
          ranking_of(inc, load, &view);
      ConsolidationChoice best;
      const bool got = inc.query_best_into(load, best);
      ASSERT_EQ(got, !ranked.empty());
      if (got) expect_choices_identical({best}, {ranked.front()});
    }
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalConsolidator, SkuChurnMatchesColdRebuildBitForBit) {
  run_churn(sku_model(24, 4, 11), /*seed=*/1234, /*steps=*/60);
}

TEST(IncrementalConsolidator, DiverseChurnMatchesColdRebuildBitForBit) {
  run_churn(diverse_model(16, 29), /*seed=*/77, /*steps=*/40);
}

/// One View reused across 40 passes, its mask bytes toggled one to three
/// machines between passes, over an SKU room (8 classes over 400 slots)
/// and a room of distinct particles: each reset must start from the
/// survivors' counts and their order at t_lo, whatever order and time the
/// previous pass left behind, and every answer must be the survivors' own
/// query's, to the bit.
TEST(IncrementalConsolidator, ReusedMaskMatchesColdRebuildAcrossPasses) {
  for (const RoomModel& room : {sku_model(400, 8, 17), diverse_model(48, 19)}) {
    const SharedRoomModel model = share_model(room);
    const size_t n = model->size();
    const double capacity = model->total_capacity();
    const IncrementalConsolidator inc(model);
    SCOPED_TRACE("room of " + std::to_string(inc.class_count()) + " classes");
    std::vector<char> active(n, 1);
    IncrementalConsolidator::View view;
    util::Rng rng(2718);
    for (size_t pass = 0; pass < 40; ++pass) {
      SCOPED_TRACE("pass " + std::to_string(pass));
      const size_t run = 1 + static_cast<size_t>(rng.next_u64() % 3);
      for (size_t d = 0; d < run; ++d) {
        active[static_cast<size_t>(rng.next_u64() % n)] ^= 1;
      }
      view.reset(inc.table(), active);
      const std::vector<uint32_t> ids = admitted_ids(active);
      const IncrementalConsolidator own(
          share_model(survivors_room(room, ids)));
      const double load = rng.uniform(0.05, 0.95) * capacity;
      expect_view_is_survivors_query(inc, view, own, ids, load);
      if (testing::Test::HasFailure()) return;
    }
  }
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

/// The engine-level guarantee: quarantined (restricted) solves read the
/// one shared selector through per-thread views, and the batch result is
/// identical at 1, 2 and 8 workers AND to a fresh engine solving each
/// request alone — on an SKU room and on a room of distinct particles,
/// where every quarantine empties a class.
TEST(PlanEngine, QuarantinedBatchesAreWorkerCountInvariantAndIncremental) {
  for (const RoomModel& room : {sku_model(20, 4, 5), diverse_model(20, 31)}) {
    const SharedRoomModel model = share_model(room);
    const double capacity = model->total_capacity();
    const size_t n = model->size();
    SCOPED_TRACE(IncrementalConsolidator(model).class_count() == n
                     ? "distinct particles"
                     : "SKU room");

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
      PlanEngine fresh(model);
      expect_results_identical(r1[i], fresh.solve(requests[i]), i);
    }
    EXPECT_GT(e1.counters().incremental_replans, 0u);
  }
}

}  // namespace
}  // namespace coolopt::core
