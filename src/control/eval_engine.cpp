#include "control/eval_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace coolopt::control {
namespace {

double now_us() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(t).count();
}

/// The one validation pass for the whole measurement stack (the model-side
/// twin is RoomModel::validate inside PlanEngine).
void validate_config(const sim::RoomConfig& config,
                     const profiling::ProfilingOptions& profiling) {
  if (config.total_servers() == 0) {
    throw std::invalid_argument("EvalEngine: room has no servers");
  }
  if (config.crac.flow_m3s <= 0.0) {
    throw std::invalid_argument("EvalEngine: CRAC flow must be positive");
  }
  if (profiling.t_ac_min >= profiling.t_ac_max) {
    throw std::invalid_argument(
        util::strf("EvalEngine: empty T_ac actuation range [%.1f, %.1f]",
                   profiling.t_ac_min, profiling.t_ac_max));
  }
}

}  // namespace

struct EvalEngine::Station {
  sim::MachineRoom room;
  std::optional<ExperimentRunner> runner;

  explicit Station(const sim::RoomConfig& config) : room(config) {}
};

/// RAII lease of a pooled station; returns it even when a measure throws,
/// so one invalid request cannot leak a room replica.
class EvalEngine::StationLease {
 public:
  explicit StationLease(EvalEngine& engine)
      : engine_(engine), station_(engine.acquire_station()) {}
  ~StationLease() { engine_.release_station(std::move(station_)); }
  StationLease(const StationLease&) = delete;
  StationLease& operator=(const StationLease&) = delete;

  Station& station() { return *station_; }

 private:
  EvalEngine& engine_;
  std::unique_ptr<Station> station_;
};

EvalEngine::EvalEngine(const EvalOptions& options) : options_(options) {
  validate_config(options_.room, options_.profiling);
}

EvalEngine::~EvalEngine() = default;

void EvalEngine::ensure_profile() const {
  std::call_once(profile_once_, [&] {
    const double t0 = now_us();
    auto station = make_station(options_.room);
    profiling::RoomProfile profile =
        profiling::profile_room(station->room, options_.profiling);
    auto engine = std::make_shared<core::PlanEngine>(
        core::share_model(profile.model), options_.planner);
    station->runner.emplace(station->room,
                            SetPointPlanner::from_profile(profile.cooler),
                            engine->shared_model());
    capacity_ = profile.model.total_capacity();
    profile_ = profiling::share_profile(std::move(profile));
    plan_engine_ = std::move(engine);
    {
      std::scoped_lock lock(stations_mu_);
      primary_ = station.get();
      idle_stations_.push_back(std::move(station));
    }
    obs::count("eval.profiles", &counters_.profiles);
    obs::observe("eval.profile_us", now_us() - t0);
  });
}

const profiling::RoomProfile& EvalEngine::profile() const {
  ensure_profile();
  return *profile_;
}

profiling::SharedRoomProfile EvalEngine::shared_profile() const {
  ensure_profile();
  return profile_;
}

const core::RoomModel& EvalEngine::model() const {
  ensure_profile();
  return profile_->model;
}

const std::shared_ptr<core::PlanEngine>& EvalEngine::plan_engine() const {
  ensure_profile();
  return plan_engine_;
}

double EvalEngine::capacity_files_s() const {
  ensure_profile();
  return capacity_;
}

sim::MachineRoom& EvalEngine::room() {
  ensure_profile();
  return primary_->room;
}

std::unique_ptr<EvalEngine::Station> EvalEngine::make_station(
    const sim::RoomConfig& config) const {
  auto station = std::make_unique<Station>(config);
  const uint64_t built = obs::bump_counter(counters_.rooms_built);
  obs::gauge_set("eval.rooms", static_cast<double>(built));
  return station;
}

std::unique_ptr<EvalEngine::Station> EvalEngine::acquire_station() {
  {
    std::scoped_lock lock(stations_mu_);
    if (!idle_stations_.empty()) {
      auto station = std::move(idle_stations_.back());
      idle_stations_.pop_back();
      return station;
    }
  }
  // Pool exhausted (more in-flight sweep tasks than rooms built so far):
  // grow by one replica. Which replica serves which task cannot change any
  // result — a measurement is a pure function of (config, plan).
  auto station = make_station(options_.room);
  station->runner.emplace(station->room,
                          SetPointPlanner::from_profile(profile_->cooler),
                          plan_engine_->shared_model());
  return station;
}

void EvalEngine::release_station(std::unique_ptr<Station> station) {
  std::scoped_lock lock(stations_mu_);
  idle_stations_.push_back(std::move(station));
}

EvalEngine::CacheKey EvalEngine::make_key(const core::Scenario& scenario,
                                          double load_pct,
                                          const RunOptions& run) {
  CacheKey key;
  key.number = scenario.number;
  key.distribution = static_cast<int>(scenario.distribution);
  key.ac_control = scenario.ac_control;
  key.consolidation = scenario.consolidation;
  key.load_pct = load_pct;
  key.transient = run.transient;
  key.transient_s = run.transient_s;
  key.dt = run.dt;
  key.setpoint_trims = run.setpoint_trims;
  return key;
}

std::optional<EvalPoint> EvalEngine::cache_lookup(const CacheKey& key) {
  {
    std::scoped_lock lock(cache_mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      obs::count("eval.cache.hit", &counters_.cache_hits);
      return it->second;
    }
  }
  obs::count("eval.cache.miss", &counters_.cache_misses);
  return std::nullopt;
}

void EvalEngine::cache_insert(const CacheKey& key, const EvalPoint& point) {
  std::scoped_lock lock(cache_mu_);
  cache_.emplace(key, point);  // first writer wins; duplicates are identical
}

EvalPoint EvalEngine::measure_on(Station& station,
                                 const core::Scenario& scenario,
                                 double load_pct, const RunOptions& run) {
  EvalPoint point;
  point.scenario = scenario;
  point.load_pct = load_pct;
  const double t0 = now_us();
  const double load = capacity_ * load_pct / 100.0;
  const core::PlanResult result =
      plan_engine_->solve(core::PlanRequest{scenario, load});
  // A degraded (shedding) plan is not a valid measurement of this load
  // level: the figure benches must see exactly the seed behavior, where a
  // thermally unservable point reads as infeasible.
  if (!result.feasible()) {
    util::log_warn("EvalEngine: no feasible plan for %s at %.0f%% load",
                   scenario.name().c_str(), load_pct);
    obs::count("eval.infeasible", &counters_.infeasible);
  } else {
    point.feasible = true;
    point.plan = *result.plan;
    point.measurement = station.runner->run(point.plan, run);
  }
  obs::count("eval.measures", &counters_.measures);
  obs::observe("eval.measure_us", now_us() - t0);
  return point;
}

EvalPoint EvalEngine::measure(const core::Scenario& scenario, double load_pct) {
  return measure(scenario, load_pct, options_.run);
}

EvalPoint EvalEngine::measure(const core::Scenario& scenario, double load_pct,
                              const RunOptions& run) {
  ensure_profile();
  const CacheKey key = make_key(scenario, load_pct, run);
  if (std::optional<EvalPoint> hit = cache_lookup(key)) return *hit;
  StationLease lease(*this);
  const EvalPoint point = measure_on(lease.station(), scenario, load_pct, run);
  cache_insert(key, point);
  return point;
}

EvalPoint EvalEngine::measure_faulted(const core::Scenario& scenario,
                                      double load_pct,
                                      const sim::FaultPlan& faults) {
  ensure_profile();
  faults.validate(options_.room.total_servers());
  if (faults.empty()) return measure(scenario, load_pct);
  obs::count("eval.faulted_measures", &counters_.faulted_measures);

  // A dedicated throwaway station: faults must never leak into the pooled
  // clean replicas, or the memo cache would stop describing the healthy
  // room. The plan is still computed on the clean fitted model — faults
  // are invisible to the planner, exactly as on real hardware.
  Station station(faults.applied_to(options_.room));
  station.runner.emplace(station.room,
                         SetPointPlanner::from_profile(profile_->cooler),
                         plan_engine_->shared_model());
  for (const size_t i : faults.failed_fans) {
    station.room.set_fan_failed(i, true);
  }
  EvalPoint point = measure_on(station, scenario, load_pct, options_.run);
  if (point.feasible) {
    double peak = 0.0;
    bool any = false;
    for (size_t i = 0; i < station.room.size(); ++i) {
      if (!point.plan.allocation.on[i]) continue;
      const double reading = station.room.read_cpu_temp_c(i);
      peak = any ? std::max(peak, reading) : reading;
      any = true;
    }
    point.observed_peak_cpu_c = any ? peak : station.room.ambient_temp_c();
  }
  return point;
}

std::vector<EvalPoint> EvalEngine::measure_batch(
    std::span<const EvalRequest> requests, size_t workers) {
  ensure_profile();
  std::vector<EvalPoint> results(requests.size());
  if (requests.empty()) return results;

  const double t0 = now_us();
  std::vector<CacheKey> keys;
  keys.reserve(requests.size());
  std::vector<size_t> misses;
  for (size_t i = 0; i < requests.size(); ++i) {
    keys.push_back(make_key(requests[i].scenario, requests[i].load_pct,
                            options_.run));
    if (std::optional<EvalPoint> hit = cache_lookup(keys.back())) {
      results[i] = std::move(*hit);
    } else {
      misses.push_back(i);
    }
  }

  if (!misses.empty()) {
    util::ThreadPool* pool = nullptr;
    std::optional<util::ThreadPool> local;
    if (workers == 0) {
      pool = &default_pool();
    } else {
      local.emplace(workers);
      pool = &*local;
    }
    obs::gauge_set("eval.sweep.workers",
                   static_cast<double>(pool->worker_count()));

    // Index-addressed result slots + one leased room replica per in-flight
    // task: the worker schedule cannot change the output. Element i is
    // bit-for-bit what the serial measure(requests[i]) returns. Misses are
    // processed in contiguous chunks (a few per worker, so stragglers
    // still balance) because one settle is far cheaper than a lease
    // round-trip — per-point leasing would serialize on the pool lock.
    const size_t chunks =
        std::min(misses.size(), 4 * std::max<size_t>(1, pool->worker_count()));
    const size_t per_chunk = (misses.size() + chunks - 1) / chunks;
    pool->parallel_for(chunks, [&](size_t c) {
      const size_t begin = c * per_chunk;
      const size_t end = std::min(misses.size(), begin + per_chunk);
      if (begin >= end) return;
      StationLease lease(*this);
      for (size_t j = begin; j < end; ++j) {
        const size_t i = misses[j];
        results[i] = measure_on(lease.station(), requests[i].scenario,
                                requests[i].load_pct, options_.run);
      }
    });
    for (const size_t i : misses) cache_insert(keys[i], results[i]);
  }

  obs::count("eval.sweep.sweeps", &counters_.sweeps);
  obs::count("eval.sweep.points", &counters_.sweep_points,
             static_cast<uint64_t>(requests.size()));
  obs::observe("eval.sweep.latency_us", now_us() - t0);
  return results;
}

std::vector<EvalPoint> EvalEngine::sweep(
    const std::vector<core::Scenario>& scenarios,
    const std::vector<double>& load_pcts, size_t workers) {
  std::vector<EvalRequest> grid;
  grid.reserve(scenarios.size() * load_pcts.size());
  for (const core::Scenario& s : scenarios) {
    for (const double pct : load_pcts) {
      grid.push_back(EvalRequest{s, pct});
    }
  }
  return measure_batch(grid, workers);
}

util::ThreadPool& EvalEngine::default_pool() {
  std::scoped_lock lock(pool_mu_);
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>();
  return *pool_;
}

EvalCounters EvalEngine::counters() const {
  EvalCounters c;
  c.profiles = obs::load_counter(counters_.profiles);
  c.measures = obs::load_counter(counters_.measures);
  c.infeasible = obs::load_counter(counters_.infeasible);
  c.cache_hits = obs::load_counter(counters_.cache_hits);
  c.cache_misses = obs::load_counter(counters_.cache_misses);
  c.faulted_measures = obs::load_counter(counters_.faulted_measures);
  c.sweeps = obs::load_counter(counters_.sweeps);
  c.sweep_points = obs::load_counter(counters_.sweep_points);
  c.rooms_built = obs::load_counter(counters_.rooms_built);
  return c;
}

std::vector<double> paper_load_axis() {
  return {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
}

}  // namespace coolopt::control
