// PlanEngine — the one seam in front of the whole solver stack.
//
// The paper's pipeline is: Eq. 19 aggregates (K_i, alpha_i/beta_i) feed the
// closed form (Eqs. 21-22), the bounded solver restores the capacity/actuation
// bounds the closed form ignores, and Algorithms 1/2 pick the consolidation
// subset. Historically every call site (scenario planner, adaptive
// controller, cooloptctl, the benches) re-instantiated that pipeline from a
// private RoomModel copy — re-validating the model and, worst of all,
// re-grouping the room for the consolidation query on every construction
// even though the model is immutable between replans.
//
// The engine owns ONE immutable shared model, validates it exactly once,
// and lazily caches every model-derived artifact behind it:
//
//   model  ->  cached aggregates (uniformity flags, capacity, sort orders)
//          ->  cached solvers (closed form, bounded sweep)
//          ->  cached particle classes of the whole fleet for Algorithm 2's
//              on-demand select (built once, immutable, read lock-free; a
//              quarantined solve admits its survivors through a
//              per-thread view)
//          ->  dispatch: closed form -> bounded sweep -> consolidation ranking
//          ->  solve_batch_into fan-out over a util::ThreadPool
//
// Warm replans and rank_all_k_into queries therefore skip preprocessing
// entirely: `engine.cache.miss` counts artifact builds, `engine.cache.hit`
// the solves and rebalances that built none. Batch solves write results
// into index-addressed slots, so the worker schedule can never change the
// answer: solve_batch_into is bit-for-bit identical to the equivalent
// sequence of solve() calls.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bounded.h"
#include "core/closed_form.h"
#include "core/incremental.h"
#include "core/model.h"
#include "core/scenario.h"

namespace coolopt::util {
class ThreadPool;
}  // namespace coolopt::util

namespace coolopt::obs {
class SpanContext;
}  // namespace coolopt::obs

namespace coolopt::core {

struct SolveScratch;

/// One planning query: which policy, how much load (files/s).
struct PlanRequest {
  PlanRequest() = default;
  PlanRequest(Scenario scenario_, double load_,
              std::vector<size_t> quarantined_ = {})
      : scenario(scenario_), load(load_), quarantined(std::move(quarantined_)) {}

  Scenario scenario = Scenario::by_number(8);
  double load = 0.0;
  /// Machines the planner must leave OFF (quarantined by the resilience
  /// layer). Load above the surviving capacity is shed, not an error;
  /// invalid indices throw std::invalid_argument naming the index.
  std::vector<size_t> quarantined;
  /// Shard attribution: which room shard of a fleet topology this request
  /// plans (set by fleet::FleetEngine when it fans a global target out).
  /// -1 for a plain single-room request; echoed into PlanResult::shard.
  int shard = -1;
  /// Optional request tracing: when non-null, solve_into() records an
  /// "engine.solve" span here (the context's serial API, so a request with
  /// spans attached must be solved from one thread at a time — FleetEngine
  /// therefore hands its parallel shard sub-requests spans = nullptr and
  /// pre-opens their slots itself). Never owned; nullptr = untraced.
  obs::SpanContext* spans = nullptr;
};

/// Outcome of one request. `error` is non-empty when the request itself was
/// invalid (negative or over-capacity load, bad quarantine index) — solve()
/// throws in that case, while solve_batch_into() captures the message here so
/// one bad request cannot tear down the batch.
///
/// Degraded results are never silently empty: when quarantines or the
/// thermal ceiling make the full load unservable, `plan` still holds the
/// best-effort allocation of what COULD be served and `shed_load` reports
/// the files/s left on the floor, with `shed_priority` listing machine
/// indices in the order the supervisor should prefer shedding them
/// (quarantined machines first, then the thermally worst survivors).
/// Invariant (pinned by the degraded-plan property test): either the plan
/// serves the full request (Σ L_i == load) or shed_load > 0 with a
/// populated priority order.
struct PlanResult {
  std::optional<Plan> plan;
  std::string error;
  double solve_us = 0.0;
  /// Echo of PlanRequest::shard (-1 when the request was not fleet-routed).
  int shard = -1;
  /// Files/s the plan could not place (0 when the request is fully served).
  double shed_load = 0.0;
  /// Preferred shedding order (only populated when shed_load > 0).
  std::vector<size_t> shed_priority;

  /// True only for a complete plan: present AND serving the full request.
  /// A best-effort degraded plan reports false here while still carrying
  /// the partial allocation in `plan`.
  bool feasible() const { return plan.has_value() && shed_load <= 0.0; }
};

/// Everything O(n)-derivable from the model that the dispatch loop used to
/// recompute (and re-sort) on every plan call.
struct ModelAggregates {
  /// RoomModel::total_capacity(), the fold every solve checks its load
  /// against.
  double total_capacity = 0.0;
  /// RoomModel::uniform_w1(), read by every route: the closed form and the
  /// consolidation select exist only when it holds (exact_paths()).
  bool uniform_w1 = false;
  /// RoomModel::uniform_w2(): the particle reduction needs it as well.
  bool uniform_w2 = false;
  std::vector<size_t> all_machines;   ///< 0..n-1
  std::vector<size_t> coolness;       ///< coolest-first (baselines' order)
  std::vector<size_t> capacity_desc;  ///< capacity-descending
  std::vector<size_t> idle_asc;       ///< idle draw (w2) ascending
  /// Flat per-machine coefficient block (same machine order as the model).
  /// The Eq. 19/21/22 aggregation loops, finalize(), and the peak-temp
  /// safety scan read these contiguous arrays instead of chasing the AoS
  /// machine structs; the arithmetic (and therefore every emitted bit) is
  /// unchanged.
  RoomSoA soa;
};

/// Monotonic per-engine counters (a snapshot). Each event bumps its field
/// and the attached obs::MetricsRegistry's `engine.*` counter of the same
/// event in one obs::count call, so the two always agree.
struct EngineCounters {
  uint64_t solves = 0;
  uint64_t infeasible = 0;
  uint64_t degraded = 0;  ///< best-effort plans returned with shed_load > 0
  uint64_t closed_form = 0;   ///< plans served purely by the closed form
  uint64_t lp_fallback = 0;   ///< plans that engaged the bounded solver
  uint64_t rebalances = 0;
  uint64_t batches = 0;
  uint64_t batch_requests = 0;
  /// solve_into / rebalance_into calls that built no cached artifact.
  uint64_t cache_hits = 0;
  /// Cached artifacts built (each at most once per engine).
  uint64_t cache_misses = 0;
  /// Restricted (quarantine) consolidation solves answered by the
  /// on-demand select through the survivors' view instead of the
  /// windowed-probe fallback.
  uint64_t incremental_replans = 0;
  /// Always 0: restricted solves build nothing of their own. Kept, with
  /// no registry metric, while the benchmark's load generator reads it.
  uint64_t incremental_cold_builds = 0;
  /// Always 0, like incremental_cold_builds.
  uint64_t incremental_event_rebuilds = 0;
  /// Optimal-consolidation solves (restricted or not) the walk finished at
  /// its first candidate, the ranking's head, served by the closed form
  /// alone and not beaten by the runner-up's bound, so no ranking was built
  /// (`engine.path.ranked_head`).
  uint64_t memo_hits = 0;
};

class PlanEngine {
 public:
  /// Validates the model once (the only validation on the whole solve
  /// path) and precomputes the cheap O(n) state; the heavy artifacts are
  /// built lazily on first use and cached for the engine's lifetime.
  explicit PlanEngine(SharedRoomModel model, PlannerOptions options = {});
  explicit PlanEngine(RoomModel model, PlannerOptions options = {});
  ~PlanEngine();

  PlanEngine(const PlanEngine&) = delete;
  PlanEngine& operator=(const PlanEngine&) = delete;

  // --- model access ---
  const RoomModel& model() const { return *model_; }
  SharedRoomModel shared_model() const { return model_; }
  /// Model the solvers see: t_max reduced by options().t_max_margin.
  /// Shares the same object as model() when the margin is zero.
  const RoomModel& planning_model() const { return *margin_model_; }
  const PlannerOptions& options() const { return options_; }

  /// True when the paper's exact machinery (closed form + Algorithm 1/2)
  /// applies: RoomModel::uniform_w1().
  bool exact_paths() const;
  /// Fixed conservative cool-air temperature used when AC control is off.
  double fixed_t_ac() const { return fixed_t_ac_; }

  // --- cached artifacts (built on first access, shared ever after) ---
  const ModelAggregates& aggregates() const;
  /// nullptr for heterogeneous-w1 fleets (no closed form).
  const AnalyticOptimizer* analytic() const;
  /// The full-fleet consolidation select: nullptr unless w1 AND w2 are
  /// uniform (Eq. 23 reduction). First access groups the particle classes;
  /// later accesses reuse them. Immutable, so every solve reads it without
  /// a lock, through SolveScratch::select.
  const IncrementalConsolidator* consolidator() const;
  /// consolidator()'s particle system; nullptr unless the particle
  /// reduction applies.
  const ParticleSystem* particles() const;

  // --- solving ---
  /// Plans (scenario, load) against the cached artifacts: the one
  /// value-returning solve. Throws std::invalid_argument on negative load,
  /// load above the full-fleet capacity, or a bad quarantine index. A load
  /// the surviving machines or the thermal ceiling cannot carry is NOT an
  /// error: the result holds the best-effort plan at the largest load the
  /// scenario's rule can serve (servable_load, one solve) with the
  /// remainder in shed_load — see PlanResult.
  PlanResult solve(const PlanRequest& request) const;

  /// The zero-allocation form solve() wraps: all intermediates live in
  /// `scratch` (usually SolveScratch::local()) and the result is written
  /// into `result`, reusing its buffers. After the scratch and result have
  /// warmed to the request shape, a call performs no heap allocation.
  /// Identical semantics to solve(), including the throws.
  void solve_into(const PlanRequest& request, SolveScratch& scratch,
                  PlanResult& result) const;

  /// Fans `requests` out across a worker pool and writes the results, in
  /// request order, into a caller-owned vector (resized to match; per-slot
  /// buffers reused). Results are bit-for-bit identical to calling solve()
  /// sequentially (index-addressed output slots; shared immutable caches).
  /// Request-level std::invalid_argument is captured into
  /// PlanResult::error instead of thrown. `workers` == 0 uses an
  /// engine-owned pool sized by util::ThreadPool::default_workers() (the
  /// CPUs this process may run on, at most 8); with
  /// it warm, a repeat batch of the same shape performs no heap allocation
  /// anywhere on the solve path (pinned by the engine-label allocation
  /// test).
  void solve_batch_into(std::span<const PlanRequest> requests,
                        std::vector<PlanResult>& results,
                        size_t workers = 0) const;

  /// Load-only redistribution over a fixed ON set (the adaptive
  /// controller's cheap middle tier): the bounded solver, no power-state
  /// changes implied. Workspace from `scratch`, allocation written into
  /// `out` (false = infeasible). Skips the on_set validation (callers pass
  /// sets they already own).
  bool rebalance_into(const std::vector<size_t>& on_set, double load,
                      SolveScratch& scratch, Allocation& out) const;

  EngineCounters counters() const;

 private:
  /// Runs `build` exactly once and counts it as a cache miss.
  template <typename Build>
  void ensure(std::once_flag& once, Build&& build) const;
  /// Counts a cache hit unless this thread built an artifact since it
  /// read `builds_before` (at the start of a solve or rebalance).
  void count_cache_hit(uint64_t builds_before) const;

  /// `restricted` limits planning to the survivors solve_into marked in
  /// scratch.mask (quarantine-aware solves); otherwise the whole fleet.
  /// Optimal consolidation picks its ON set through consolidate_into.
  /// `forced` (Optimal only) skips the ON-set choice: the split runs on
  /// exactly those machines. Writes the plan into `out` (buffers reused);
  /// false = no feasible plan: some CPU would run past the margined T_max.
  bool compute_plan_into(const Scenario& s, double load, bool restricted,
                         const std::vector<size_t>* forced,
                         SolveScratch& scratch, Plan& out) const;
  /// A restricted solve's survivors (scratch.mask) in index order
  /// (scratch.allowed, with their index-order capacity fold in
  /// scratch.allowed_capacity) and in coolness order (scratch.order).
  /// Built on the first call in a restricted solve, which solve_into marks
  /// by clearing scratch.allowed; only the paths that read them call it, so
  /// a solve the closed form or the select answers pays for neither.
  void survivor_lists(SolveScratch& scratch) const;
  /// The machines a solve may plan on, in index order or coolest first:
  /// the cached whole-fleet lists, or a restricted solve's survivor_lists.
  const std::vector<size_t>& machines_for(bool restricted,
                                          SolveScratch& scratch) const;
  const std::vector<size_t>& coolness_for(bool restricted,
                                          SolveScratch& scratch) const;
  /// The largest load at or below `load` that scenario `s`'s rule can place
  /// on the allowed machines (the paper's maxL, Sec. III-B, without a power
  /// budget), from the per-machine caps u_i(T) BoundedOptimizer holds; -1
  /// when not even zero load fits (a machine that must stay ON cannot
  /// idle). Returns `load` itself when the rule carries all of it. Optimal:
  /// the caps at t_ac_min of the machines that survive there, which it
  /// leaves in scratch.subset. Bottom-up: the coolest-first fill up to the
  /// first machine that cannot run at capacity. Even: the water level under
  /// the lowest binding cap, per coolness prefix with consolidation.
  double servable_load(const Scenario& s, double load, bool restricted,
                       SolveScratch& scratch) const;
  /// Optimal with consolidation: the cheapest feasible plan over the
  /// candidate ON sets, into scratch.best_alloc; false when none is
  /// feasible. `best_pure` reports whether the closed form alone served it.
  ///
  /// One walk answers every room. With a particle reduction (uniform w1 and
  /// w2) the candidates are Algorithm 2's (k, t) entries, best predicted
  /// power first, each subset the top k at its operating time t, copied
  /// only when probed. When ParticleSystem::w2_identical the head scan
  /// (ClassSelector::scan_head) yields the first candidate and the
  /// runner-up's power; the full ranking is built only when the plan on the
  /// head does not beat that power, and the walk resumes at its second
  /// entry. Heterogeneous rooms walk a window of k with no bound. The
  /// select reads scratch.select, reset to every machine or, in a
  /// restricted solve, to the survivors in scratch.mask.
  bool consolidate_into(double load, bool restricted, SolveScratch& scratch,
                        bool& best_pure) const;
  /// Optimal split over a fixed ON set: closed form, else the bounded
  /// solver (BoundedOptimizer). Writes into `out` (false = infeasible);
  /// workspaces from `scratch`.
  bool plan_optimal_into(const size_t* on_set, size_t count, double load,
                         SolveScratch& scratch, Allocation& out,
                         bool& closed_form_pure) const;
  /// The cached bounded solver over the margined model.
  const BoundedOptimizer& bounded() const;
  util::ThreadPool& default_pool() const;

  SharedRoomModel model_;         // as fitted
  SharedRoomModel margin_model_;  // t_max reduced by the margin (== model_ if 0)
  PlannerOptions options_;
  double fixed_t_ac_ = 0.0;

  mutable std::once_flag aggregates_once_;
  mutable std::shared_ptr<const ModelAggregates> aggregates_;  // shares soa
  mutable std::once_flag analytic_once_;
  mutable std::unique_ptr<AnalyticOptimizer> analytic_;
  mutable std::once_flag bounded_once_;
  mutable std::unique_ptr<BoundedOptimizer> bounded_;
  mutable std::once_flag consolidator_once_;
  mutable std::unique_ptr<IncrementalConsolidator> consolidator_;

  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<util::ThreadPool> pool_;

  /// Live counters, bumped concurrently through obs::count.
  mutable EngineCounters counters_;
};

}  // namespace coolopt::core
