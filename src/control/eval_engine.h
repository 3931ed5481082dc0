// EvalEngine — the one seam in front of the whole measurement stack, the
// twin of core::PlanEngine on the other side of the plan/measure divide.
//
// The paper's evaluation pipeline is: profile a room once (the "two sets
// of experiments" of Section III-A plus cooler calibration), then measure
// many (scenario, load) operating points against the fitted model — plan,
// actuate, settle, read. Historically every figure bench rebuilt that
// pipeline from scratch: each one re-ran the full profiling campaign,
// every repeated (scenario, load) query re-settled an operating
// point already measured, and the 8-scenario x load-axis sweeps walked the
// grid strictly serially.
//
// The engine owns ONE validated sim::RoomConfig and derives everything
// else lazily, exactly once:
//
//   config  ->  profiling campaign (shared RoomProfile)       [run once]
//           ->  shared core::PlanEngine on the fitted model   [built once]
//           ->  memoized measure(scenario, load, run options)
//           ->  measure_batch/sweep fan-out over pooled room replicas
//           ->  measure_faulted: FaultPlan injection on a throwaway room
//
// Determinism is by construction: a measurement is a pure function of the
// (validated) room configuration and the plan — MachineRoom::settle is a
// direct steady-state solve with no memory of previous operating points,
// plans come from the shared immutable PlanEngine caches, and batch
// results land in index-addressed slots. A parallel sweep is therefore
// bit-for-bit identical to the serial loop at any worker count, which the
// `eval`-labelled test suite pins at 1/2/8 workers (tsan-clean under the
// `tsan` CMake preset). The `eval.*` metrics family quantifies what the
// caches buy (see docs/evaluation.md and docs/observability.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "control/runner.h"
#include "control/setpoint_planner.h"
#include "core/engine.h"
#include "core/scenario.h"
#include "profiling/profiler.h"
#include "sim/config.h"
#include "sim/room.h"

namespace coolopt::util {
class ThreadPool;
}  // namespace coolopt::util

namespace coolopt::control {

/// Everything that parameterizes an evaluation campaign: the room, the
/// profiling campaign that fits its model, the planner policy, and how
/// operating points are run.
struct EvalOptions {
  sim::RoomConfig room;
  profiling::ProfilingOptions profiling = profiling::ProfilingOptions::fast();
  core::PlannerOptions planner;
  RunOptions run;

  EvalOptions() { planner.t_max_margin = 1.0; }
};

/// A measured (scenario, load) point for the figure tables.
struct EvalPoint {
  core::Scenario scenario;
  double load_pct = 0.0;           ///< percent of total room capacity
  bool feasible = false;           ///< the planner found an operating point
  Measurement measurement;         ///< valid when feasible
  core::Plan plan;                 ///< valid when feasible
  /// Instrument-read hottest ON CPU. Only measure_faulted fills this
  /// (clean measures never touch the stateful sensors, which keeps them
  /// bit-for-bit reproducible across worker schedules); 0 otherwise.
  double observed_peak_cpu_c = 0.0;
};

/// One measurement query for measure_batch.
struct EvalRequest {
  core::Scenario scenario = core::Scenario::by_number(8);
  double load_pct = 0.0;
};

/// Monotonic per-engine counters (a snapshot). Each event bumps its field
/// and the attached obs::MetricsRegistry's `eval.*` metric in one call
/// (rooms_built is the `eval.rooms` gauge), so the two always agree.
struct EvalCounters {
  uint64_t profiles = 0;         ///< profiling campaigns run (stays at 1)
  uint64_t measures = 0;         ///< operating points actually measured
  uint64_t infeasible = 0;       ///< measures with no feasible plan
  uint64_t cache_hits = 0;       ///< measures served from the memo cache
  uint64_t cache_misses = 0;
  uint64_t faulted_measures = 0; ///< measure_faulted calls (never cached)
  uint64_t sweeps = 0;           ///< measure_batch/sweep invocations
  uint64_t sweep_points = 0;     ///< points requested across all sweeps
  uint64_t rooms_built = 0;      ///< pooled room replicas constructed
};

class EvalEngine {
 public:
  /// Validates the room configuration once; the profiling campaign, the
  /// plan engine and the measurement rooms are all built lazily on first
  /// use and shared for the engine's lifetime.
  explicit EvalEngine(const EvalOptions& options = {});
  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  // --- shared artifacts (first access pays the campaign, once) ---
  const EvalOptions& options() const { return options_; }
  /// The profiling campaign's result; runs the campaign on first access.
  const profiling::RoomProfile& profile() const;
  /// Shares the profile without copying it.
  profiling::SharedRoomProfile shared_profile() const;
  const core::RoomModel& model() const;
  /// The planning engine built from the fitted model, shared with every
  /// caller (hand it to an AdaptiveController, or solve on it directly).
  const std::shared_ptr<core::PlanEngine>& plan_engine() const;
  double capacity_files_s() const;
  /// The primary measurement room (the one the profiling campaign ran on).
  /// Do not mutate persistent state (fan failures) or call while a sweep
  /// is in flight — use measure_faulted for fault studies.
  sim::MachineRoom& room();

  // --- measuring ---
  /// Plans and runs one scenario at `load_pct` percent of room capacity.
  /// Memoized: a repeated (scenario, load, run options) query returns the
  /// identical EvalPoint without re-settling. Throws std::invalid_argument
  /// on negative or over-capacity load, as PlanEngine::solve does.
  EvalPoint measure(const core::Scenario& scenario, double load_pct);
  EvalPoint measure(const core::Scenario& scenario, double load_pct,
                    const RunOptions& run);

  /// Measures under injected faults (failed fans, sensor failure modes) on
  /// a dedicated throwaway room: the plan still comes from the clean
  /// fitted model (faults are invisible to the planner, as on real
  /// hardware), the pooled clean rooms are never touched, and the result
  /// is never cached — the clean memo cache keeps describing the healthy
  /// room. Also fills EvalPoint::observed_peak_cpu_c from the (faulted)
  /// instruments.
  EvalPoint measure_faulted(const core::Scenario& scenario, double load_pct,
                            const sim::FaultPlan& faults);

  /// Fans independent measurements over a worker pool and returns results
  /// in request order, bit-for-bit identical to the serial measure() loop
  /// (index-addressed slots; one pooled room replica per in-flight task;
  /// memoized points are served from the cache without a worker).
  /// `workers` == 0 uses an engine-owned pool sized by
  /// util::ThreadPool::default_workers(): the CPUs this process may run on
  /// (its affinity mask), at most 8.
  std::vector<EvalPoint> measure_batch(std::span<const EvalRequest> requests,
                                       size_t workers = 0);

  /// Full grid: every scenario at every load, rows in scenario-major
  /// order, measured via measure_batch.
  std::vector<EvalPoint> sweep(const std::vector<core::Scenario>& scenarios,
                               const std::vector<double>& load_pcts,
                               size_t workers = 0);

  EvalCounters counters() const;

 private:
  /// One room replica plus the runner that actuates plans on it. Pooled:
  /// sweeps lease a station per in-flight task, so no two workers ever
  /// share mutable simulator state.
  struct Station;
  class StationLease;

  /// Memo key: full scenario identity (ad-hoc scenarios share number 0),
  /// the exact load percentage, and the run options. Keying the load by a
  /// truncated integer would collide fractional percentages — see the
  /// SweepTable fix in bench/common.h.
  struct CacheKey {
    int number = 0;
    int distribution = 0;
    bool ac_control = false;
    bool consolidation = false;
    double load_pct = 0.0;
    bool transient = false;
    double transient_s = 0.0;
    double dt = 0.0;
    uint64_t setpoint_trims = 0;

    bool operator<(const CacheKey& o) const {
      return std::tie(number, distribution, ac_control, consolidation,
                      load_pct, transient, transient_s, dt, setpoint_trims) <
             std::tie(o.number, o.distribution, o.ac_control, o.consolidation,
                      o.load_pct, o.transient, o.transient_s, o.dt,
                      o.setpoint_trims);
    }
  };

  static CacheKey make_key(const core::Scenario& scenario, double load_pct,
                           const RunOptions& run);
  /// Runs the profiling campaign exactly once (thread-safe; every later
  /// call is free) and publishes profile/plan engine/primary station.
  void ensure_profile() const;
  std::unique_ptr<Station> make_station(const sim::RoomConfig& config) const;
  std::unique_ptr<Station> acquire_station();
  void release_station(std::unique_ptr<Station> station);
  /// Looks up the memo cache, keeping the hit/miss books.
  std::optional<EvalPoint> cache_lookup(const CacheKey& key);
  void cache_insert(const CacheKey& key, const EvalPoint& point);
  /// The uncached measurement: plan on the shared engine, actuate and
  /// settle on `station`, read ground truth.
  EvalPoint measure_on(Station& station, const core::Scenario& scenario,
                       double load_pct, const RunOptions& run);
  util::ThreadPool& default_pool();

  EvalOptions options_;

  mutable std::once_flag profile_once_;
  mutable profiling::SharedRoomProfile profile_;
  mutable std::shared_ptr<core::PlanEngine> plan_engine_;
  mutable double capacity_ = 0.0;

  // Guards the station pool, and orders make_station's rooms_built bump
  // with its eval.rooms gauge write.
  mutable std::mutex stations_mu_;
  mutable std::vector<std::unique_ptr<Station>> idle_stations_;
  mutable Station* primary_ = nullptr;  // owned via the pool; profiled room

  std::mutex cache_mu_;
  std::map<CacheKey, EvalPoint> cache_;

  std::mutex pool_mu_;
  std::unique_ptr<util::ThreadPool> pool_;

  /// Live counters, bumped concurrently through obs::count.
  mutable EvalCounters counters_;
};

/// The load axis the paper sweeps in Figs. 5-9: 10..100 % in steps of 10.
std::vector<double> paper_load_axis();

}  // namespace coolopt::control
