// Allocation-counting guard for the zero-allocation solve path.
//
// This binary overrides the GLOBAL operator new/delete family with a
// counting shim, which is why it is its own test executable: the override
// is process-wide and must not perturb (or be perturbed by) any other
// suite. The tests warm a PlanEngine, then assert that further warm solves
// — serial solve_into, solve_batch_into over 200 requests on the default
// pool, a walk over a longer ranking than any before, rebalance_into, the
// consolidation query-best path, restricted
// solves under one-machine quarantine churn, and degraded solves of all
// eight scenarios — perform
// ZERO heap allocations: every buffer lives in the grow-only SolveScratch
// arena (or a caller-owned slot) after warm-up. The served path's last step
// is held to the same bar: encoding a warm plan or fleetplan response into
// a reused buffer allocates nothing either.
//
// The batch case judges the first batch after two priming batches, with
// no retry. Pool workers join a parallel_for range on a wakeup, so a
// worker that slept through both priming batches would still hold a cold
// thread-local scratch; a range of 200 solves is long enough that every
// worker takes part (1,000 replays on a 4-thread host, each with a fresh
// engine and pool, allocated nothing). A failure means a warm batch
// allocated, or a worker missed two whole ranges.

// GCC pairs the inlined bodies of this TU's malloc-backed operator new with
// the free-backed operator delete and warns mismatched-new-delete; the pair
// IS matched (both sides of the same override), so silence the false alarm.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "core/engine.h"
#include "core/scratch.h"
#include "core/synthetic.h"
#include "fleet/fleet_engine.h"
#include "obs/span.h"
#include "service/wire.h"

namespace {
std::atomic<unsigned long long> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace coolopt;

unsigned long long allocs() { return g_news.load(std::memory_order_relaxed); }

/// Synthetic room with 3x capacity headroom so the cycle below stays on
/// the pure closed-form walk (the LP fallback is also allocation-free when
/// warm, but the pure path is the regime the guard is about).
core::RoomModel test_model(size_t n) {
  core::SyntheticModelOptions opt;
  opt.machines = n;
  opt.seed = 7;
  core::RoomModel model = core::make_synthetic_model(opt);
  for (core::MachineModel& m : model.machines) m.capacity *= 3.0;
  return model;
}

/// `count` requests striped over a 16-point operating cycle (15%..35% of
/// capacity) on the paper's holistic scenario #8.
std::vector<core::PlanRequest> cycle_requests(const core::RoomModel& model,
                                              size_t count) {
  const core::Scenario holistic = core::Scenario::by_number(8);
  std::vector<core::PlanRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double frac =
        0.15 + 0.20 * static_cast<double>(i % 16) / 16.0;
    requests.emplace_back(holistic, model.total_capacity() * frac);
  }
  return requests;
}

TEST(AllocGuard, WarmSerialSolveIsAllocationFree) {
  const core::PlanEngine engine(test_model(200));
  const std::vector<core::PlanRequest> requests =
      cycle_requests(engine.model(), 32);
  core::SolveScratch& scratch = core::SolveScratch::local();
  core::PlanResult slot;
  for (int round = 0; round < 2; ++round) {
    for (const core::PlanRequest& r : requests) {
      engine.solve_into(r, scratch, slot);
    }
  }
  const unsigned long long before = allocs();
  for (const core::PlanRequest& r : requests) {
    engine.solve_into(r, scratch, slot);
  }
  EXPECT_EQ(allocs() - before, 0u);
  ASSERT_TRUE(slot.plan.has_value());
  EXPECT_GT(slot.plan->allocation.total_power_w, 0.0);
}

TEST(AllocGuard, WarmSolveBatchOf200IsAllocationFree) {
  const core::PlanEngine engine(test_model(200));
  const std::vector<core::PlanRequest> requests =
      cycle_requests(engine.model(), 200);
  std::vector<core::PlanResult> results;
  engine.solve_batch_into(requests, results, /*workers=*/0);
  engine.solve_batch_into(requests, results, /*workers=*/0);

  const unsigned long long before = allocs();
  engine.solve_batch_into(requests, results, /*workers=*/0);
  EXPECT_EQ(allocs() - before, 0u)
      << "a warm solve_batch_into of " << requests.size() << " requests";
  ASSERT_EQ(results.size(), requests.size());
  for (const core::PlanResult& r : results) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_TRUE(r.plan.has_value());
  }
}

/// A ranking holds one (k, segment, power) entry per feasible k, so a lower
/// load, which more k can serve, needs no more than the room-wide reservation
/// every solve leaves behind. On this default-capacity room the closed form
/// leaves its bounds on the head at both loads, so both walks rank every k.
TEST(AllocGuard, LowerLoadAfterWarmRankingIsAllocationFree) {
  core::SyntheticModelOptions opt;
  opt.machines = 32;
  opt.seed = 1;
  const core::PlanEngine engine(core::make_synthetic_model(opt));
  const double capacity = engine.model().total_capacity();
  const core::PlanRequest high(core::Scenario::by_number(8), capacity * 0.8);
  const core::PlanRequest low(core::Scenario::by_number(8), capacity * 0.1);
  core::SolveScratch scratch;
  core::PlanResult slot;
  engine.solve_into(high, scratch, slot);
  engine.solve_into(high, scratch, slot);
  const uint64_t heads = engine.counters().memo_hits;
  const unsigned long long before = allocs();
  engine.solve_into(low, scratch, slot);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(engine.counters().memo_hits, heads) << "the head answered";
  ASSERT_TRUE(slot.feasible());
}

/// Issue 9's hard requirement: attaching a span context must not buy the
/// warm path a single allocation. The context's record vector is grow-only
/// (warmed by the priming rounds) and span names are literals, so a warm
/// TRACED solve — reset, nested spans, timing — stays at zero.
TEST(AllocGuard, WarmTracedSolveIsAllocationFree) {
  const core::PlanEngine engine(test_model(200));
  const std::vector<core::PlanRequest> requests =
      cycle_requests(engine.model(), 32);
  core::SolveScratch& scratch = core::SolveScratch::local();
  core::PlanResult slot;
  obs::SpanContext spans;
  uint64_t trace_id = 1;
  const auto traced_cycle = [&] {
    for (const core::PlanRequest& r : requests) {
      spans.reset(trace_id++);
      const int root = spans.begin("service.request");
      core::PlanRequest traced = r;
      traced.spans = &spans;
      engine.solve_into(traced, scratch, slot);
      spans.end(root);
    }
  };
  traced_cycle();
  traced_cycle();
  const unsigned long long before = allocs();
  traced_cycle();
  EXPECT_EQ(allocs() - before, 0u);
  ASSERT_TRUE(slot.plan.has_value());
  // The spans actually recorded: service.request wrapping engine.solve.
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans.records()[1].name, "engine.solve");
  EXPECT_EQ(spans.records()[1].parent, 0);
  EXPECT_GE(spans.records()[0].dur_us, spans.records()[1].dur_us);
}

TEST(AllocGuard, WarmRebalanceIsAllocationFree) {
  const core::PlanEngine engine(test_model(64));
  std::vector<size_t> on_set(engine.model().size());
  std::iota(on_set.begin(), on_set.end(), size_t{0});
  const double load = engine.model().total_capacity() * 0.2;
  core::SolveScratch& scratch = core::SolveScratch::local();
  core::Allocation out;
  ASSERT_TRUE(engine.rebalance_into(on_set, load, scratch, out));
  ASSERT_TRUE(engine.rebalance_into(on_set, load, scratch, out));
  const unsigned long long before = allocs();
  ASSERT_TRUE(engine.rebalance_into(on_set, load, scratch, out));
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(out.total_power_w, 0.0);
}

TEST(AllocGuard, WarmQueryBestIsAllocationFree) {
  const core::PlanEngine engine(test_model(100));
  const core::IncrementalConsolidator* cons = engine.consolidator();
  ASSERT_NE(cons, nullptr);
  const double load = engine.model().total_capacity() * 0.25;
  core::ConsolidationChoice choice;
  ASSERT_TRUE(cons->table().query_best_into(cons->particles(), engine.model(),
                                            load, choice));
  const unsigned long long before = allocs();
  ASSERT_TRUE(cons->table().query_best_into(cons->particles(), engine.model(),
                                            load, choice));
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(choice.k, 0u);
}

/// Restricted solves under quarantine churn: each request is one machine
/// away from the one before, so every solve moves the incremental
/// Algorithm 1 table by one delta (active-class count check, segment
/// patch, tail refold) and queries it. Every third step also asks for the
/// survivors' whole capacity and for the whole room's, loads that build the
/// survivor lists (PlanEngine::survivor_lists) inside the solve and shed.
/// After one warm lap of the walk every per-delta buffer is grown, and a
/// second lap allocates nothing.
TEST(AllocGuard, WarmQuarantineChurnSolveIsAllocationFree) {
  // 2000 machines in 8 classes, the layout real fleets and the cooloptd
  // benchmark use.
  core::RoomModel model = test_model(2000);
  for (size_t i = 8; i < model.size(); ++i) {
    model.machines[i] = model.machines[i % 8];
    model.machines[i].id = static_cast<int>(i);
  }
  const core::PlanEngine engine(model);
  const core::Scenario holistic = core::Scenario::by_number(8);
  // Walk out: quarantine one more machine per step (a spread of slots, so
  // every class loses members); then walk back, readmitting one per step.
  std::vector<size_t> walk;
  for (size_t j = 0; j < 12; ++j) walk.push_back((j * 997 + 13) % model.size());
  std::vector<core::PlanRequest> requests;
  std::vector<size_t> quarantined;
  const auto add = [&](size_t j) {
    requests.emplace_back(holistic, model.total_capacity() * (0.15 + 0.01 * j),
                          quarantined);
    if (j % 3 != 2) return;
    double survivors = 0.0;
    for (size_t i = 0; i < model.size(); ++i) {
      if (std::find(quarantined.begin(), quarantined.end(), i) ==
          quarantined.end()) {
        survivors += model.machines[i].capacity;
      }
    }
    requests.emplace_back(holistic, survivors, quarantined);
    requests.emplace_back(holistic, model.total_capacity(), quarantined);
  };
  for (size_t j = 0; j < walk.size(); ++j) {
    quarantined.push_back(walk[j]);
    add(j);
  }
  for (size_t j = walk.size(); j-- > 1;) {
    quarantined.pop_back();
    add(j);
  }
  core::SolveScratch& scratch = core::SolveScratch::local();
  core::PlanResult slot;
  for (const core::PlanRequest& r : requests) engine.solve_into(r, scratch, slot);
  const unsigned long long before = allocs();
  for (const core::PlanRequest& r : requests) engine.solve_into(r, scratch, slot);
  EXPECT_EQ(allocs() - before, 0u);
  ASSERT_TRUE(slot.error.empty()) << slot.error;
  ASSERT_TRUE(slot.plan.has_value());
  const core::EngineCounters counters = engine.counters();
  EXPECT_GT(counters.degraded, 0u);
  EXPECT_EQ(counters.incremental_replans, 2 * requests.size());
  EXPECT_EQ(counters.incremental_cold_builds, 1u);
  EXPECT_EQ(counters.incremental_event_rebuilds, 0u);
}

/// Degraded solves: a room whose capacities pass every machine's thermal cap
/// at t_ac_min, so all eight scenarios shed load above its thermal maximum,
/// with and without a quarantine. The servable-load scan, the one solve at
/// that load and the Even and Bottom-up fills all reuse the scratch and the
/// result slot, as a fully served solve does.
TEST(AllocGuard, WarmDegradedSolveIsAllocationFree) {
  core::SyntheticModelOptions opt;
  opt.machines = 64;
  opt.seed = 7;
  opt.capacity_lo = 95.0;
  opt.capacity_hi = 105.0;
  const core::PlanEngine engine(core::make_synthetic_model(opt));
  const double capacity = engine.model().total_capacity();
  std::vector<core::PlanRequest> requests;
  for (const core::Scenario& s : core::Scenario::all8()) {
    for (const double frac : {0.9, 0.97}) {
      requests.emplace_back(s, capacity * frac);
      requests.emplace_back(s, capacity * frac, std::vector<size_t>{5, 17});
    }
  }
  core::SolveScratch& scratch = core::SolveScratch::local();
  core::PlanResult slot;
  for (const core::PlanRequest& r : requests) engine.solve_into(r, scratch, slot);
  const uint64_t degraded = engine.counters().degraded;
  const unsigned long long before = allocs();
  for (const core::PlanRequest& r : requests) engine.solve_into(r, scratch, slot);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(engine.counters().degraded, degraded + requests.size());
  ASSERT_TRUE(slot.plan.has_value());
}

/// The cooloptd worker's encode step: a 200-machine plan response (traced
/// and deadline-echoing, the longest plan envelope) appended to a buffer
/// already grown by earlier responses must not allocate — the writer's
/// nesting stack is fixed-size and numbers format on the stack.
TEST(AllocGuard, WarmPlanEncodeIsAllocationFree) {
  const core::PlanEngine engine(test_model(200));
  const std::vector<core::PlanRequest> requests =
      cycle_requests(engine.model(), 16);
  std::vector<core::PlanResult> results;
  engine.solve_batch_into(requests, results, /*workers=*/1);
  obs::SpanContext spans;
  spans.reset(7);
  const int root = spans.begin("service.request");
  spans.begin("engine.solve");
  spans.end(root + 1);
  spans.end(root);
  std::string buffer;
  const auto encode_all = [&] {
    for (size_t i = 0; i < results.size(); ++i) {
      buffer.clear();
      service::encode_plan_response(buffer, i, results[i], &spans,
                                    uint64_t{250});
      buffer.push_back('\n');
    }
  };
  encode_all();
  const unsigned long long before = allocs();
  encode_all();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(buffer.size(), 200u * 6);
  EXPECT_EQ(buffer.back(), '\n');
}

/// The largest response cooloptd sends: a fleetplan over 4 shards of a
/// 400-machine room (healthy, with a down shard, and traced with a
/// deadline echo), appended to a buffer already grown by earlier responses.
TEST(AllocGuard, WarmFleetplanEncodeIsAllocationFree) {
  const fleet::FleetEngine fleet(fleet::partition_room(test_model(400), 4));
  std::vector<fleet::FleetPlanResult> results;
  for (const double frac : {0.2, 0.45, 0.7}) {
    fleet::FleetPlanRequest request;
    request.load = fleet.total_capacity() * frac;
    results.push_back(fleet.solve(request, /*workers=*/1));
    request.down_shards = {2};
    results.push_back(fleet.solve(request, /*workers=*/1));
  }
  obs::SpanContext spans;
  spans.reset(9);
  const int root = spans.begin("service.request");
  spans.begin("fleet.solve");
  spans.end(root + 1);
  spans.end(root);
  std::string buffer;
  const auto encode_all = [&] {
    for (size_t i = 0; i < results.size(); ++i) {
      buffer.clear();
      service::encode_fleetplan_response(buffer, i, results[i],
                                         i % 2 == 0 ? nullptr : &spans,
                                         uint64_t{250});
      buffer.push_back('\n');
    }
  };
  encode_all();
  const unsigned long long before = allocs();
  encode_all();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(buffer.size(), 300u * 6);
  EXPECT_EQ(buffer.back(), '\n');
}

}  // namespace
