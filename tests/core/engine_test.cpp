#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/scratch.h"
#include "core/synthetic.h"
#include "core/verification.h"
#include "obs/obs.h"
#include "tests/core/consolidation_support.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

using test_support::ranking_of;

RoomModel uniform_model(size_t machines = 20, uint64_t seed = 7) {
  SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  return make_synthetic_model(opt);
}

RoomModel heterogeneous_model(size_t machines = 12, uint64_t seed = 7) {
  RoomModel model = uniform_model(machines, seed);
  for (size_t i = 0; i < model.size(); ++i) {
    model.machines[i].power.w1 *= 1.0 + 0.05 * static_cast<double>(i);
    model.machines[i].power.w2 += static_cast<double>(i);
  }
  return model;
}

/// The 200-request load sweep of the determinism suite: every scenario at
/// 25 load points spanning (0, capacity].
std::vector<PlanRequest> sweep_requests(const RoomModel& model) {
  std::vector<PlanRequest> requests;
  const double capacity = model.total_capacity();
  for (const Scenario& s : Scenario::all8()) {
    for (int step = 1; step <= 25; ++step) {
      requests.push_back(PlanRequest{s, capacity * step / 25.0});
    }
  }
  return requests;
}

void expect_identical(const PlanResult& a, const PlanResult& b, size_t index) {
  SCOPED_TRACE("request " + std::to_string(index));
  ASSERT_EQ(a.error, b.error);
  ASSERT_EQ(a.plan.has_value(), b.plan.has_value());
  if (!a.plan) return;
  // Bit-for-bit: every double compared with exact equality. The engine
  // computes each result from the same immutable cached artifacts, so the
  // worker schedule must not perturb a single bit.
  EXPECT_EQ(a.plan->load, b.plan->load);
  EXPECT_EQ(a.plan->closed_form_pure, b.plan->closed_form_pure);
  EXPECT_EQ(a.plan->scenario.number, b.plan->scenario.number);
  EXPECT_EQ(a.plan->allocation.on, b.plan->allocation.on);
  ASSERT_EQ(a.plan->allocation.loads.size(), b.plan->allocation.loads.size());
  for (size_t i = 0; i < a.plan->allocation.loads.size(); ++i) {
    EXPECT_EQ(a.plan->allocation.loads[i], b.plan->allocation.loads[i]);
  }
  EXPECT_EQ(a.plan->allocation.t_ac, b.plan->allocation.t_ac);
  EXPECT_EQ(a.plan->allocation.it_power_w, b.plan->allocation.it_power_w);
  EXPECT_EQ(a.plan->allocation.cooling_power_w, b.plan->allocation.cooling_power_w);
  EXPECT_EQ(a.plan->allocation.total_power_w, b.plan->allocation.total_power_w);
}

TEST(PlanEngine, BatchMatchesSequentialBitForBit) {
  const PlanEngine engine(uniform_model());
  std::vector<PlanRequest> requests = sweep_requests(engine.model());
  ASSERT_EQ(requests.size(), 200u);

  std::vector<PlanResult> sequential;
  sequential.reserve(requests.size());
  for (const PlanRequest& r : requests) sequential.push_back(engine.solve(r));

  // Scenario-8 quarantines under three masks, interleaved: concurrent
  // workers move the restricted table between masks while others walk it.
  // At default capacity the closed form leaves its bounds at most loads,
  // so most of these walks go past the head, reading subsets from the
  // table's segment orders as they probe.
  const size_t n = engine.model().size();
  const std::vector<std::vector<size_t>> masks = {
      {0, n / 2}, {1, 4, n - 1}, {2}};
  const double capacity = engine.model().total_capacity();
  const uint64_t heads = engine.counters().memo_hits;
  for (int step = 1; step <= 24; ++step) {
    for (const std::vector<size_t>& mask : masks) {
      requests.emplace_back(Scenario::by_number(8), capacity * step / 25.0,
                            mask);
      sequential.push_back(engine.solve(requests.back()));
    }
  }
  const uint64_t walks = 24 * masks.size();
  EXPECT_LT(2 * (engine.counters().memo_hits - heads), walks)
      << "most restricted walks must go past the head";

  for (const size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    std::vector<PlanResult> batch;
    engine.solve_batch_into(requests, batch, workers);
    ASSERT_EQ(batch.size(), requests.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      expect_identical(sequential[i], batch[i], i);
    }
  }
}

TEST(PlanEngine, BatchOnHeterogeneousFleetMatchesSequential) {
  const PlanEngine engine(heterogeneous_model());
  EXPECT_FALSE(engine.exact_paths());
  std::vector<PlanRequest> requests = sweep_requests(engine.model());
  std::vector<PlanResult> sequential;
  sequential.reserve(requests.size());
  for (const PlanRequest& r : requests) sequential.push_back(engine.solve(r));
  std::vector<PlanResult> batch;
  engine.solve_batch_into(requests, batch, 8);
  for (size_t i = 0; i < batch.size(); ++i) {
    expect_identical(sequential[i], batch[i], i);
  }
}

TEST(PlanEngine, WarmReplansPreprocessAlgorithm1ExactlyOnce) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);

  const PlanEngine engine(uniform_model());
  const double capacity = engine.model().total_capacity();
  const Scenario holistic = Scenario::by_number(8);
  for (int step = 1; step <= 40; ++step) {
    engine.solve(PlanRequest{holistic, capacity * step / 40.0});
  }
  // Algorithm 1's O(n^3 lg n) preprocessing ran once for 40 replans; before
  // the engine it ran once per planner construction.
  EXPECT_EQ(registry.counter("consolidation.preprocesses").value(), 1u);

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.solves, 40u);
  // At most one miss per artifact (aggregates, analytic, lp, consolidator);
  // everything else the 40 solves touched was a cache hit.
  EXPECT_GE(counters.cache_misses, 3u);
  EXPECT_LE(counters.cache_misses, 4u);
  EXPECT_GT(counters.cache_hits, counters.cache_misses);
  EXPECT_EQ(registry.counter("engine.cache.miss").value(), counters.cache_misses);
  EXPECT_EQ(registry.counter("engine.cache.hit").value(), counters.cache_hits);
}

/// `engine.cache.hit` counts cache reuse: one per solve or rebalance that
/// built no artifact, however many artifact accessors it called.
TEST(PlanEngine, EachWarmSolveCountsOneCacheHit) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  const PlanEngine engine(uniform_model());
  const double capacity = engine.model().total_capacity();
  SolveScratch& scratch = SolveScratch::local();
  Allocation alloc;
  // Warm every artifact: the closed form, the bounded fallback (a low load
  // over every machine), the consolidation table and a rebalance.
  engine.solve({Scenario::by_number(6), capacity * 0.5});
  engine.solve({Scenario::by_number(6), capacity * 0.03});
  engine.solve({Scenario::by_number(8), capacity * 0.5});
  ASSERT_TRUE(
      engine.rebalance_into({0, 1, 2}, capacity * 0.05, scratch, alloc));
  const EngineCounters warm = engine.counters();
  ASSERT_GT(warm.cache_misses, 0u);

  // Solves that call several accessors each: consolidation walks (some
  // restricted), fixed-set splits, a batch, and rebalances.
  uint64_t calls = 0;
  for (int step = 1; step <= 9; ++step) {
    std::vector<size_t> quarantined;
    if (step % 3 == 0) quarantined = {static_cast<size_t>(step)};
    engine.solve({Scenario::by_number(step % 2 == 0 ? 6 : 8),
                  capacity * step / 10.0, quarantined});
    ++calls;
  }
  const std::vector<PlanRequest> requests = {
      {Scenario::by_number(8), capacity * 0.35},
      {Scenario::by_number(6), capacity * 0.65}};
  std::vector<PlanResult> results;
  engine.solve_batch_into(requests, results, 2);
  calls += requests.size();
  for (const double frac : {0.02, 0.04}) {
    ASSERT_TRUE(
        engine.rebalance_into({0, 1, 2}, capacity * frac, scratch, alloc));
    ++calls;
  }

  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.cache_hits - warm.cache_hits, calls);
  EXPECT_EQ(after.cache_misses, warm.cache_misses);
  EXPECT_EQ(registry.counter("engine.cache.hit").value(), after.cache_hits);
  EXPECT_EQ(registry.counter("engine.cache.miss").value(), after.cache_misses);
}

TEST(PlanEngine, SharedEngineKeepsOneEventTableAcrossPlanners) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);

  auto engine = std::make_shared<PlanEngine>(uniform_model());
  const double load = engine->model().total_capacity() * 0.6;
  for (int i = 0; i < 3; ++i) {
    // Each consumer holds the shared engine, not a private model copy.
    const std::shared_ptr<const PlanEngine> planner = engine;
    ASSERT_TRUE(planner->solve({Scenario::by_number(8), load}).plan.has_value());
  }
  EXPECT_EQ(registry.counter("consolidation.preprocesses").value(), 1u);

  // Independent engines (the pre-engine behavior) pay it again each time.
  const PlanEngine fresh(uniform_model());
  ASSERT_TRUE(fresh.solve({Scenario::by_number(8), load}).plan.has_value());
  EXPECT_EQ(registry.counter("consolidation.preprocesses").value(), 2u);
}

/// The value-returning solve() is the one wrapper over solve_into: its plan
/// must match a warm result slot and scratch reused across every scenario.
TEST(PlanEngine, WrapperPlannerMatchesEngine) {
  const PlanEngine engine(uniform_model());
  const double capacity = engine.model().total_capacity();
  SolveScratch scratch;
  PlanResult slot;
  for (const Scenario& s : Scenario::all8()) {
    const PlanRequest request{s, capacity * 0.55};
    const PlanResult via_solve = engine.solve(request);
    engine.solve_into(request, scratch, slot);
    expect_identical(via_solve, slot, static_cast<size_t>(s.number));
  }
}

TEST(PlanEngine, ExactPathsAndArtifactsFollowFleetShape) {
  const PlanEngine uniform(uniform_model());
  EXPECT_TRUE(uniform.exact_paths());
  EXPECT_NE(uniform.analytic(), nullptr);
  EXPECT_NE(uniform.consolidator(), nullptr);
  EXPECT_NE(uniform.particles(), nullptr);
  EXPECT_TRUE(uniform.aggregates().uniform_w1);
  EXPECT_TRUE(uniform.aggregates().uniform_w2);

  const PlanEngine hetero(heterogeneous_model());
  EXPECT_FALSE(hetero.exact_paths());
  EXPECT_EQ(hetero.analytic(), nullptr);
  EXPECT_EQ(hetero.consolidator(), nullptr);
  EXPECT_EQ(hetero.particles(), nullptr);

  // Heterogeneous fleets still plan — through the bounded LP.
  const auto result = hetero.solve(
      PlanRequest{Scenario::by_number(6), hetero.model().total_capacity() * 0.5});
  ASSERT_TRUE(result.feasible());
  EXPECT_FALSE(result.plan->closed_form_pure);
}

TEST(PlanEngine, AggregatesMatchTheModel) {
  const RoomModel model = uniform_model();
  const PlanEngine engine(model);
  const ModelAggregates& agg = engine.aggregates();
  EXPECT_DOUBLE_EQ(agg.total_capacity, model.total_capacity());
  EXPECT_EQ(agg.all_machines.size(), model.size());
  EXPECT_EQ(agg.coolness.size(), model.size());
  EXPECT_EQ(agg.capacity_desc.size(), model.size());
  EXPECT_EQ(agg.idle_asc.size(), model.size());
}

TEST(PlanEngine, MarginZeroSharesTheModelObject) {
  const PlanEngine engine(uniform_model());
  EXPECT_EQ(&engine.model(), &engine.planning_model());

  const PlanEngine margined(uniform_model(), PlannerOptions{1.0});
  EXPECT_NE(&margined.model(), &margined.planning_model());
  EXPECT_DOUBLE_EQ(margined.planning_model().t_max, margined.model().t_max - 1.0);
}

TEST(PlanEngine, InvalidLoadThrowsOnSolveButIsCapturedInBatch) {
  const PlanEngine engine(uniform_model());
  const Scenario s = Scenario::by_number(8);
  EXPECT_THROW(engine.solve(PlanRequest{s, -1.0}), std::invalid_argument);
  EXPECT_THROW(engine.solve(PlanRequest{s, engine.model().total_capacity() * 2}),
               std::invalid_argument);

  const std::vector<PlanRequest> requests = {
      PlanRequest{s, engine.model().total_capacity() * 0.5},
      PlanRequest{s, -1.0},
      PlanRequest{s, engine.model().total_capacity() * 0.25},
  };
  std::vector<PlanResult> results;
  engine.solve_batch_into(requests, results, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].feasible());
  EXPECT_FALSE(results[1].feasible());
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_TRUE(results[2].feasible());
}

TEST(PlanEngine, RebalanceServesLoadOnFixedOnSet) {
  const PlanEngine engine(uniform_model());
  const std::vector<size_t> on_set = {0, 3, 5, 9};
  double on_capacity = 0.0;
  for (const size_t i : on_set) {
    on_capacity += engine.model().machines[i].capacity;
  }
  Allocation alloc;
  ASSERT_TRUE(engine.rebalance_into(on_set, on_capacity * 0.7,
                                    SolveScratch::local(), alloc));
  double served = 0.0;
  for (size_t i = 0; i < engine.model().size(); ++i) {
    if (alloc.on[i]) {
      served += alloc.loads[i];
    } else {
      EXPECT_EQ(alloc.loads[i], 0.0);
    }
  }
  EXPECT_NEAR(served, on_capacity * 0.7, 1e-6);
  EXPECT_EQ(engine.counters().rebalances, 1u);
}

TEST(PlanEngine, CountersTrackBatches) {
  const PlanEngine engine(uniform_model());
  const std::vector<PlanRequest> requests = {
      PlanRequest{Scenario::by_number(6), engine.model().total_capacity() * 0.4},
      PlanRequest{Scenario::by_number(6), engine.model().total_capacity() * 0.6},
  };
  std::vector<PlanResult> results;
  engine.solve_batch_into(requests, results, 2);
  engine.solve_batch_into(requests, results, 1);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.batches, 2u);
  EXPECT_EQ(counters.batch_requests, 4u);
  EXPECT_EQ(counters.solves, 4u);
}

/// The ranked-head property. For every fully served solve whose walk ended
/// at its head (a memo_hits delta), the plan must be what the walk accepts
/// at its first candidate: the ON set is the head of rank_all_k on the
/// full-fleet table, read through the request's survivors for a quarantined
/// request, the closed form served it alone and
/// within bounds, and the runner-up's relaxation bound cannot beat it. One
/// answer per question: the walk's head and the exact query read the
/// table's one head scan, so that ON set is also query_best_into's subset
/// on the same table.
/// Adds how many of `requests` ended at the head to `answered`.
void expect_head_answers_match_walk(const PlanEngine& engine,
                                    const std::vector<PlanRequest>& requests,
                                    size_t& answered) {
  const IncrementalConsolidator* table = engine.consolidator();
  std::vector<char> active;
  detail::ConsolidationTable::Mask survivors;
  for (size_t i = 0; i < requests.size(); ++i) {
    const PlanRequest& req = requests[i];
    const uint64_t before = engine.counters().memo_hits;
    const PlanResult result = engine.solve(req);
    // A request above the survivors' capacity runs the check on what they
    // carry and still sheds; the property is about fully served solves.
    if (engine.counters().memo_hits == before || !result.feasible()) continue;
    ++answered;
    SCOPED_TRACE("request " + std::to_string(i) + ", load " +
                 std::to_string(req.load) + ", quarantined " +
                 std::to_string(req.quarantined.size()));
    EXPECT_EQ(engine.counters().memo_hits, before + 1);
    const Plan& plan = *result.plan;

    detail::ConsolidationTable::Mask* mask = nullptr;
    if (!req.quarantined.empty()) {
      active.assign(engine.model().size(), 1);
      for (size_t q : req.quarantined) active[q] = 0;
      survivors.reset(table->table(), active);
      mask = &survivors;
    }
    const std::vector<ConsolidationChoice> ranked =
        ranking_of(*table, plan.load, mask);
    ASSERT_FALSE(ranked.empty());
    std::vector<bool> head_on(engine.model().size(), false);
    for (size_t m : ranked.front().on_set) head_on[m] = true;
    EXPECT_EQ(plan.allocation.on, head_on);
    ConsolidationChoice best;
    ASSERT_TRUE(table->query_best_into(plan.load, best, mask));
    std::vector<bool> best_on(engine.model().size(), false);
    for (size_t m : best.on_set) best_on[m] = true;
    EXPECT_EQ(plan.allocation.on, best_on);
    EXPECT_TRUE(plan.closed_form_pure);
    // The closed form alone, re-solved on the head set, must land within
    // bounds and be the served split bit-for-bit.
    const ClosedFormResult cf =
        engine.analytic()->solve(ranked.front().on_set, plan.load);
    EXPECT_TRUE(cf.within_bounds());
    EXPECT_EQ(cf.allocation.loads, plan.allocation.loads);
    if (ranked.size() > 1) {
      EXPECT_GE(ranked[1].predicted_total_power_w,
                plan.allocation.total_power_w - 1e-12);
    }
  }
}

/// The rooms and loads the ranked-head tests sweep: seeded rooms at n = 12
/// and 24, with and without 3x capacity headroom, each at a seeded load sweep
/// plus the table's breakpoint loads (each k-subset exactly at a segment
/// start, where operating_segment tips over). Calls `visit(engine, loads)`.
template <typename Visit>
void for_each_ranked_head_room(Visit&& visit) {
  for (const size_t n : {12u, 24u}) {
    for (const uint64_t seed : {3u, 7u}) {
      for (const double headroom : {1.0, 3.0}) {
        SCOPED_TRACE("n " + std::to_string(n) + ", seed " +
                     std::to_string(seed) + ", headroom " +
                     std::to_string(headroom));
        RoomModel room = uniform_model(n, seed);
        for (MachineModel& m : room.machines) m.capacity *= headroom;
        const PlanEngine engine(std::move(room));
        const double capacity = engine.model().total_capacity();

        std::vector<double> loads;
        for (int step = 1; step <= 16; ++step) {
          loads.push_back(capacity * step / 17.0);
        }
        const detail::ConsolidationTable& table =
            engine.consolidator()->table();
        const ParticleSystem& ps = engine.consolidator()->particles();
        const size_t stride = 1 + table.segments.size() / 12;
        for (size_t si = 0; si < table.segments.size(); si += stride) {
          for (const size_t k : {size_t{1}, size_t{2}, table.width() / 2,
                                 table.width()}) {
            const double load = table.g(ps, k, table.segments[si].start);
            if (load > 0.0 && load < capacity) loads.push_back(load);
          }
        }
        visit(engine, loads);
      }
    }
  }
}

TEST(PlanEngine, RankedHeadAnswersAreWhatTheWalkAccepts) {
  const Scenario holistic = Scenario::by_number(8);
  size_t answers = 0;
  for_each_ranked_head_room([&](const PlanEngine& engine,
                                const std::vector<double>& loads) {
    std::vector<PlanRequest> requests;
    for (const double load : loads) requests.emplace_back(holistic, load);
    expect_head_answers_match_walk(engine, requests, answers);
    // A warm engine answers bit-for-bit like a fresh one: the check keeps no
    // state across solves, so history cannot change a plan.
    const PlanEngine fresh(engine.shared_model());
    for (size_t i = 0; i < requests.size(); ++i) {
      expect_identical(engine.solve(requests[i]), fresh.solve(requests[i]), i);
    }
  });
  EXPECT_GT(answers, 0u);
}

TEST(PlanEngine, RestrictedSolvesRunTheRankedHeadCheck) {
  const Scenario holistic = Scenario::by_number(8);
  size_t answers = 0;
  for_each_ranked_head_room([&](const PlanEngine& engine,
                                const std::vector<double>& loads) {
    const size_t n = engine.model().size();
    std::vector<PlanRequest> requests;
    for (const double load : loads) {
      requests.push_back(PlanRequest(holistic, load, {0, n / 2}));
      requests.push_back(PlanRequest(holistic, load, {1, 4, n - 1}));
    }
    expect_head_answers_match_walk(engine, requests, answers);
  });
  // The walk over the IncrementalConsolidator table starts at the head scan
  // as the full-fleet one does: quarantined solves end at the head too.
  EXPECT_GT(answers, 0u);
}

/// `room` with w1 raised by 1e-7 relative on every other machine: the odd
/// ones (`front_larger` false) or the even ones, the first machine among
/// them.
RoomModel near_uniform(RoomModel room, bool front_larger) {
  for (size_t i = front_larger ? 0 : 1; i < room.size(); i += 2) {
    room.machines[i].power.w1 *= 1.0 + 1e-7;
  }
  return room;
}

/// A fleet whose w1 spread is too small to see in a fit but too large for
/// the closed form (it would run machines past T_max) is not "one fitted
/// power model": every route agrees, and every scenario still plans.
TEST(PlanEngine, NearUniformW1PlansEveryScenarioThroughTheBoundedPaths) {
  for (const uint64_t seed : {3u, 7u}) {
    for (const bool front_larger : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", front machine's w1 " +
                   (front_larger ? "larger" : "smaller"));
      const PlanEngine engine(near_uniform(uniform_model(12, seed), front_larger));
      EXPECT_FALSE(engine.model().uniform_w1());
      EXPECT_FALSE(engine.exact_paths());
      EXPECT_EQ(engine.analytic(), nullptr);
      EXPECT_EQ(engine.consolidator(), nullptr);
      EXPECT_EQ(engine.particles(), nullptr);

      RoomModel flat = engine.model();
      for (MachineModel& m : flat.machines) {
        m.power.w1 = flat.machines.front().power.w1;
      }
      const PlanEngine reference(std::move(flat));
      ASSERT_TRUE(reference.exact_paths());

      const double capacity = engine.model().total_capacity();
      for (const Scenario& s : Scenario::all8()) {
        for (const double fraction : {0.1, 0.5, 0.9}) {
          SCOPED_TRACE("scenario " + std::to_string(s.number) + " at " +
                       std::to_string(fraction));
          PlanResult result;
          ASSERT_NO_THROW(result =
                              engine.solve(PlanRequest(s, fraction * capacity)));
          ASSERT_TRUE(result.plan.has_value());
          const Plan& plan = *result.plan;
          EXPECT_TRUE(
              audit_feasibility(engine.model(), plan.allocation, plan.load)
                  .empty());
          if (s.number != 6) continue;
          ASSERT_TRUE(result.feasible());
          const PlanResult exact =
              reference.solve(PlanRequest(s, fraction * capacity));
          ASSERT_TRUE(exact.feasible());
          EXPECT_NEAR(plan.allocation.total_power_w,
                      exact.plan->allocation.total_power_w,
                      1e-6 * exact.plan->allocation.total_power_w);
        }
      }
    }
  }
}

/// The benchmark's SKU room (perfbench/workload.cpp): the first 8 machine
/// classes of synthetic seed 42 in equal shares over `machines` slots, in an
/// order drawn from `seed`, with 3x capacity headroom.
RoomModel sku_room(size_t machines, uint64_t seed) {
  RoomModel model = uniform_model(machines, 42);
  std::vector<size_t> classes(machines);
  for (size_t i = 0; i < machines; ++i) classes[i] = i % 8;
  util::Rng(seed).fork("room").shuffle(classes);
  const std::vector<MachineModel> skus(model.machines.begin(),
                                       model.machines.begin() + 8);
  for (size_t i = 0; i < machines; ++i) {
    model.machines[i] = skus[classes[i]];
    model.machines[i].id = static_cast<int>(i);
    model.machines[i].capacity *= 3.0;
  }
  return model;
}

// load == total_capacity() is admitted, but the baselines fold the same
// capacities in other orders (coolest-first, pin order), which can land a
// few ulps short of it. On these rooms scenarios 1/4 (n = 1250) and 3/7
// (n = 2000) used to throw "exceeds capacity" instead of planning.
TEST(PlanEngineCapacity, LoadExactlyAtCapacityPlansEveryScenario) {
  for (const size_t n : {1250u, 2000u}) {
    const PlanEngine engine(sku_room(n, 1));
    const double capacity = engine.model().total_capacity();
    for (const int s : {1, 2, 3, 4, 5, 6, 7, 8}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", scenario " + std::to_string(s));
      PlanResult result;
      ASSERT_NO_THROW(result = engine.solve(
                          PlanRequest{Scenario::by_number(s), capacity}));
      ASSERT_TRUE(result.plan.has_value());
      EXPECT_TRUE(result.feasible() || result.shed_load > 0.0);
    }
  }
  const PlanEngine small(sku_room(200, 1));
  for (const int s : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE("n 200, scenario " + std::to_string(s));
    PlanResult result;
    ASSERT_NO_THROW(result = small.solve(PlanRequest{
                        Scenario::by_number(s), small.model().total_capacity()}));
    ASSERT_TRUE(result.plan.has_value());
  }
}

// Scenario 6 on the default room leaves the closed form's bounds at 15%
// load, so every ON machine goes through the bounded solver: its scratch is
// O(n), not a dense tableau.
TEST(PlanEngineCapacity, BoundedPathScratchStaysLinear) {
  const PlanEngine engine(uniform_model(800, 1));
  SolveScratch scratch;
  PlanResult result;
  engine.solve_into(PlanRequest{Scenario::by_number(6),
                                engine.model().total_capacity() * 0.15},
                    scratch, result);
  ASSERT_TRUE(result.feasible());
  EXPECT_FALSE(result.plan->closed_form_pure);
  EXPECT_LT(scratch.bytes(), size_t{1} << 20);
}

TEST(PlanEngine, ZeroLoadWithConsolidationTurnsEverythingOff) {
  const PlanEngine engine(uniform_model());
  const auto result = engine.solve(PlanRequest{Scenario::by_number(8), 0.0});
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.plan->allocation.count_on(), 0u);
}

// The degraded-plan property the resilience layer leans on: every solve
// that doesn't throw either serves the full request or says out loud what
// it left on the floor. No silent partial plans, no empty results — except
// where no load at all fits: a scenario that keeps every allowed machine ON
// while one of them cannot idle at t_ac_min has no plan, and sheds it all.
TEST(PlanEngineDegraded, EveryResultServesFullyOrReportsShed) {
  const size_t n = 12;
  RoomModel non_idling = uniform_model(n);
  MachineModel& hot = non_idling.machines[5];
  hot.thermal.gamma = non_idling.t_max + 0.5 -
                      hot.thermal.alpha * non_idling.t_ac_min -
                      hot.thermal.beta * hot.power.w2;
  const std::vector<std::pair<std::string, RoomModel>> rooms = {
      {"uniform", uniform_model(n)},
      {"heterogeneous-w1", heterogeneous_model(n)},
      {"non-idling", non_idling}};

  std::vector<std::vector<size_t>> quarantine_sets = {
      {}, {0}, {3, 7}, {0, 1, 2, 3, 4, 5}, {11}, {}, {}};
  // All-but-one and the whole fleet.
  for (size_t i = 0; i + 1 < n; ++i) quarantine_sets[5].push_back(i);
  for (size_t i = 0; i < n; ++i) quarantine_sets[6].push_back(i);

  for (const auto& [room_name, room] : rooms) {
    const PlanEngine engine(room);
    const double capacity = engine.model().total_capacity();
    for (const Scenario& scenario : Scenario::all8()) {
      for (const auto& quarantined : quarantine_sets) {
        for (const double frac : {0.1, 0.3, 0.5, 0.7, 0.85, 1.0}) {
          const PlanRequest request{scenario, capacity * frac, quarantined};
          const PlanResult result = engine.solve(request);
          SCOPED_TRACE(room_name + ", " + scenario.name() + " frac " +
                       std::to_string(frac) + " quarantined " +
                       std::to_string(quarantined.size()));

          const bool hot_stays_on =
              room_name == "non-idling" && !scenario.consolidation &&
              std::find(quarantined.begin(), quarantined.end(), size_t{5}) ==
                  quarantined.end();
          if (hot_stays_on) {
            EXPECT_FALSE(result.plan.has_value());
            EXPECT_EQ(result.shed_load, request.load);
            continue;
          }
          // Otherwise a best-effort plan always exists (zero load fits).
          ASSERT_TRUE(result.plan.has_value());
          double served = 0.0;
          for (size_t i = 0; i < n; ++i) {
            if (result.plan->allocation.on[i]) {
              served += result.plan->allocation.loads[i];
            } else {
              EXPECT_EQ(result.plan->allocation.loads[i], 0.0);
            }
          }
          // Quarantined machines never carry load.
          for (const size_t i : quarantined) {
            EXPECT_FALSE(result.plan->allocation.on[i]) << "machine " << i;
          }
          // Served + shed accounts for the whole request...
          EXPECT_NEAR(served + result.shed_load, request.load,
                      1e-6 * std::max(1.0, request.load));
          if (result.shed_load > 0.0) {
            // ...and shedding comes with a populated priority order that
            // fences the quarantined machines first.
            ASSERT_FALSE(result.shed_priority.empty());
            EXPECT_FALSE(result.feasible());
            for (size_t q = 0; q < quarantined.size(); ++q) {
              const auto head = result.shed_priority.begin() +
                                static_cast<ptrdiff_t>(quarantined.size());
              EXPECT_NE(std::find(result.shed_priority.begin(), head,
                                  quarantined[q]),
                        head)
                  << "quarantined machine " << quarantined[q]
                  << " not at the head of the shed order";
            }
          } else {
            EXPECT_NEAR(served, request.load,
                        1e-6 * std::max(1.0, request.load));
            EXPECT_TRUE(result.feasible());
            EXPECT_TRUE(result.shed_priority.empty());
          }
        }
      }
    }
    EXPECT_GT(engine.counters().degraded, 0u) << room_name;
  }
}

TEST(PlanEngineDegraded, BadQuarantineIndexThrows) {
  const PlanEngine engine(uniform_model(6));
  EXPECT_THROW(engine.solve(PlanRequest{Scenario::by_number(8), 10.0, {6}}),
               std::invalid_argument);
}

TEST(PlanEngineDegraded, RepeatedQuarantineIndexIsShedOnce) {
  // {2, 2, 4} quarantines two machines: the shed order lists each once, in
  // first-appearance order, and the plan is the one {2, 4} gets.
  const PlanEngine engine(uniform_model(6, 3));
  const double load = engine.model().total_capacity() * 0.98;
  const Scenario holistic = Scenario::by_number(8);
  const PlanResult repeated = engine.solve(PlanRequest{holistic, load, {2, 2, 4}});
  const PlanResult once = engine.solve(PlanRequest{holistic, load, {2, 4}});
  ASSERT_GT(repeated.shed_load, 0.0);
  EXPECT_EQ(repeated.shed_priority, (std::vector<size_t>{2, 4, 1, 5, 0, 3}));
  EXPECT_EQ(repeated.shed_priority, once.shed_priority);
  EXPECT_EQ(repeated.shed_load, once.shed_load);
  expect_identical(repeated, once, 0);
}

// A quarantine list is read as a set: an unsorted list, one with repeats, or
// one naming every machine plans exactly what its sorted, deduplicated form
// does in every scenario, at loads below, at and above the survivors'
// capacity. Above it, even by one ulp, the solve plans exactly that
// capacity, folded over the survivors in index order, and sheds the rest;
// the shed order opens with the list's machines in first-appearance order.
TEST(PlanEngineDegraded, QuarantineListIsReadAsASet) {
  const size_t n = 40;
  // Half capacities keep every machine under T_max at full load, so each
  // scenario serves whatever capacity survives.
  RoomModel room = uniform_model(n, 11);
  for (MachineModel& m : room.machines) m.capacity *= 0.5;
  const PlanEngine engine(room);
  const double total = engine.model().total_capacity();

  std::vector<size_t> everyone;
  for (size_t i = n; i-- > 0;) {
    everyone.push_back(i);
    if (i % 7 == 0) everyone.push_back(i);
  }
  const std::vector<std::vector<size_t>> lists = {
      {17, 3, 29, 3, 8}, {39, 0, 39, 0, 39}, {5, 4, 3, 2, 1, 0}, {12, 12, 12},
      everyone};
  for (const std::vector<size_t>& list : lists) {
    std::vector<size_t> set = list;
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    std::vector<size_t> first_seen;
    for (const size_t i : list) {
      if (std::find(first_seen.begin(), first_seen.end(), i) ==
          first_seen.end()) {
        first_seen.push_back(i);
      }
    }
    double survivors = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!std::binary_search(set.begin(), set.end(), i)) {
        survivors += engine.model().machines[i].capacity;
      }
    }
    const double loads[] = {survivors * 0.5,
                            survivors * (1.0 - 1e-6),
                            std::nextafter(survivors, 0.0),
                            survivors,
                            std::nextafter(survivors, total),
                            std::min(total, survivors * 1.05),
                            total};
    for (const Scenario& scenario : Scenario::all8()) {
      for (const double load : loads) {
        SCOPED_TRACE(scenario.name() + ", " + std::to_string(list.size()) +
                     "-entry list, load " + std::to_string(load));
        const PlanResult got = engine.solve(PlanRequest{scenario, load, list});
        const PlanResult want = engine.solve(PlanRequest{scenario, load, set});
        expect_identical(got, want, 0);
        ASSERT_TRUE(got.plan.has_value());
        EXPECT_EQ(got.plan->load, std::min(load, survivors));
        EXPECT_EQ(got.shed_load, want.shed_load);
        const double expected_shed = load - survivors > 1e-9 ? load - survivors : 0.0;
        EXPECT_EQ(got.shed_load, load > survivors ? expected_shed : 0.0);
        if (got.shed_load > 0.0) {
          ASSERT_EQ(got.shed_priority.size(), want.shed_priority.size());
          ASSERT_EQ(got.shed_priority.size(), n);
          EXPECT_TRUE(std::equal(first_seen.begin(), first_seen.end(),
                                 got.shed_priority.begin()));
          EXPECT_TRUE(std::equal(got.shed_priority.begin() +
                                     static_cast<ptrdiff_t>(set.size()),
                                 got.shed_priority.end(),
                                 want.shed_priority.begin() +
                                     static_cast<ptrdiff_t>(set.size())));
        } else {
          EXPECT_TRUE(got.shed_priority.empty());
        }
      }
    }
  }
}

TEST(PlanEngineDegraded, DegradedSolvesCountInCounters) {
  const PlanEngine engine(uniform_model(6));
  std::vector<size_t> all(6);
  for (size_t i = 0; i < 6; ++i) all[i] = i;
  const auto result = engine.solve(
      PlanRequest{Scenario::by_number(8), engine.model().total_capacity(), all});
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_EQ(result.plan->allocation.count_on(), 0u);
  EXPECT_DOUBLE_EQ(result.shed_load, engine.model().total_capacity());
  EXPECT_EQ(engine.counters().degraded, 1u);
}

/// Each EngineCounters field and the registry counter its event site bumps.
struct CounterMetric {
  const char* metric;
  uint64_t EngineCounters::*field;
};

constexpr CounterMetric kEngineCounterMetrics[] = {
    {"engine.solves", &EngineCounters::solves},
    {"engine.infeasible", &EngineCounters::infeasible},
    {"engine.degraded", &EngineCounters::degraded},
    {"engine.path.closed_form", &EngineCounters::closed_form},
    {"engine.path.lp_fallback", &EngineCounters::lp_fallback},
    {"engine.rebalances", &EngineCounters::rebalances},
    {"engine.batch.batches", &EngineCounters::batches},
    {"engine.batch.requests", &EngineCounters::batch_requests},
    {"engine.cache.hit", &EngineCounters::cache_hits},
    {"engine.cache.miss", &EngineCounters::cache_misses},
    {"engine.incremental.replans", &EngineCounters::incremental_replans},
    {"engine.path.ranked_head", &EngineCounters::memo_hits},
};
/// The fields no event bumps any more: always 0, with no registry metric.
constexpr uint64_t EngineCounters::*kRetiredCounters[] = {
    &EngineCounters::incremental_cold_builds,
    &EngineCounters::incremental_event_rebuilds,
};
static_assert((std::size(kEngineCounterMetrics) + std::size(kRetiredCounters)) *
                      sizeof(uint64_t) ==
                  sizeof(EngineCounters),
              "every EngineCounters field has a row");

/// Expects every field to equal its registry metric; returns the snapshot.
EngineCounters expect_counters_match_registry(const PlanEngine& engine,
                                              obs::MetricsRegistry& registry) {
  const EngineCounters counters = engine.counters();
  for (const CounterMetric& row : kEngineCounterMetrics) {
    EXPECT_EQ(counters.*row.field, registry.counter(row.metric).value())
        << row.metric;
  }
  for (const auto field : kRetiredCounters) EXPECT_EQ(counters.*field, 0u);
  return counters;
}

TEST(PlanEngine, EveryCounterMatchesItsRegistryMetric) {
  {
    obs::MetricsRegistry registry;
    obs::ScopedObservation scope(&registry);
    // Capacity headroom keeps the closed form within bounds, so the
    // closed-form and ranked-head paths both answer.
    RoomModel model = uniform_model(20);
    for (MachineModel& m : model.machines) m.capacity *= 3.0;
    const PlanEngine engine(model);
    const double capacity = engine.model().total_capacity();
    // Closed form, the LP fallback (a low load over every machine), and
    // the ranked head across a consolidation sweep.
    engine.solve({Scenario::by_number(6), capacity * 0.5});
    engine.solve({Scenario::by_number(6), capacity * 0.03});
    for (int step = 1; step <= 9; ++step) {
      engine.solve({Scenario::by_number(8), capacity * step / 10.0});
    }
    // Quarantine churn through the masked table, then a load the survivors
    // cannot carry.
    for (const std::vector<size_t>& quarantined :
         std::vector<std::vector<size_t>>{{1}, {1, 2}, {2}, {2, 5, 9}}) {
      engine.solve({Scenario::by_number(8), capacity * 0.4, quarantined});
    }
    engine.solve({Scenario::by_number(8), capacity * 0.9, {0, 1, 2, 3, 4, 5}});
    // A batch and a rebalance.
    const std::vector<PlanRequest> requests = {
        {Scenario::by_number(6), capacity * 0.3},
        {Scenario::by_number(8), capacity * 0.6}};
    std::vector<PlanResult> results;
    engine.solve_batch_into(requests, results, 2);
    Allocation alloc;
    ASSERT_TRUE(engine.rebalance_into({0, 3, 5, 9}, capacity * 0.1,
                                      SolveScratch::local(), alloc));
    const EngineCounters counters =
        expect_counters_match_registry(engine, registry);
    for (const CounterMetric& row : kEngineCounterMetrics) {
      if (std::string_view(row.metric) != "engine.infeasible") {
        EXPECT_GT(counters.*row.field, 0u) << row.metric << " never fired";
      }
    }
  }
  {
    // Infeasible solves: a room whose idle machines already break the
    // ceiling at the coldest air the CRAC supplies.
    obs::MetricsRegistry registry;
    obs::ScopedObservation scope(&registry);
    RoomModel hot = uniform_model(6);
    hot.t_ac_min = hot.t_max - 1.0;
    hot.t_ac_max = hot.t_max + 1.0;
    const PlanEngine engine(hot);
    const PlanResult result = engine.solve(
        {Scenario::by_number(1), engine.model().total_capacity() * 0.2});
    ASSERT_FALSE(result.plan.has_value());
    EXPECT_GT(expect_counters_match_registry(engine, registry).infeasible, 0u);
  }
}

}  // namespace
}  // namespace coolopt::core
