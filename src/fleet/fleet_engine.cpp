#include "fleet/fleet_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/scratch.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace coolopt::fleet {
namespace {

double now_us() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(t).count();
}

/// Cache key covering ad-hoc scenarios too (number alone is 0 for those).
int scenario_key(const core::Scenario& s) {
  return (s.number << 4) | (static_cast<int>(s.distribution) << 2) |
         (s.ac_control ? 2 : 0) | (s.consolidation ? 1 : 0);
}

}  // namespace

const char* to_string(ShardStatus status) {
  switch (status) {
    case ShardStatus::kOk: return "ok";
    case ShardStatus::kDegraded: return "degraded";
    case ShardStatus::kDown: return "down";
  }
  return "?";
}

size_t FleetPlanResult::shards_down() const {
  size_t n = 0;
  for (const ShardStatus s : shard_status) {
    if (s == ShardStatus::kDown) ++n;
  }
  return n;
}

bool FleetPlanResult::feasible() const {
  if (shed_load > 0.0) return false;
  bool any_serving = false;
  for (size_t s = 0; s < shard_results.size(); ++s) {
    if (s < shard_status.size() && shard_status[s] == ShardStatus::kDown) {
      continue;  // excluded: its load lives on in the survivors' plans
    }
    any_serving = true;
    const core::PlanResult& r = shard_results[s];
    if (!r.error.empty() || !r.plan.has_value()) return false;
  }
  return any_serving;
}

FleetEngine::FleetEngine(FleetTopology topology, FleetOptions options)
    : topology_(std::move(topology)), options_(options) {
  topology_.validate();
  engines_.reserve(topology_.size());
  for (const FleetShard& shard : topology_.shards) {
    engines_.push_back(
        std::make_unique<core::PlanEngine>(shard.model, options_.planner));
  }
  total_capacity_ = topology_.total_capacity();
  obs::gauge_set("fleet.shards", static_cast<double>(topology_.size()));
}

FleetEngine::~FleetEngine() = default;

const core::PlanEngine& FleetEngine::engine(size_t shard) const {
  if (shard >= engines_.size()) {
    throw std::invalid_argument(
        util::strf("FleetEngine: shard %zu out of range (fleet has %zu "
                   "shards)",
                   shard, engines_.size()));
  }
  return *engines_[shard];
}

const std::vector<FleetEngine::ShardFrontier>& FleetEngine::frontiers_for(
    const core::Scenario& s) const {
  const int key = scenario_key(s);
  std::scoped_lock lock(frontier_mu_);
  const auto it = frontiers_.find(key);
  if (it != frontiers_.end()) return it->second;

  // Shard frontiers are independent (each samples its own engine), so the
  // first fleet solve pays all shard preprocesses in parallel, not in a
  // serial walk — index-addressed slots keep the cache deterministic.
  std::vector<ShardFrontier> fronts(engines_.size());
  // Frontier resolution: each shard is sampled at kSamples + 1 evenly
  // spaced loads (j / kSamples of its capacity, j = 0..kSamples).
  constexpr size_t kSamples = 16;
  default_pool().parallel_for(engines_.size(), [&](size_t shard) {
    const double cap = engines_[shard]->aggregates().total_capacity;
    std::vector<FrontierPoint> points;
    points.reserve(kSamples + 1);
    // One request/result pair reused across the whole sweep: every sample
    // after the first refills the previous PlanResult's buffers in place
    // through the engine's warm scratch path instead of materializing a
    // fresh result per load level.
    core::PlanRequest req(s, 0.0);
    core::PlanResult r;
    // A sample that sheds load served the shard's largest servable load,
    // and every larger sample would serve that same plan again (the hull
    // drops the duplicates), so the sweep stops there. Even with
    // consolidation is the exception: a longer coolness prefix can carry a
    // load a shorter one could not.
    const bool monotone =
        s.distribution != core::Distribution::kEven || !s.consolidation;
    for (size_t j = 0; j <= kSamples; ++j) {
      req.load = cap * static_cast<double>(j) / static_cast<double>(kSamples);
      engines_[shard]->solve_into(req, core::SolveScratch::local(), r);
      if (!r.plan) continue;
      points.push_back(FrontierPoint{req.load - r.shed_load,
                                     r.plan->allocation.total_power_w});
      if (r.shed_load > 0.0 && monotone) break;
    }
    std::sort(points.begin(), points.end(),
              [](const FrontierPoint& x, const FrontierPoint& y) {
                if (x.load != y.load) return x.load < y.load;
                return x.power_w < y.power_w;
              });

    // Lower convex envelope: keep slopes strictly increasing so the
    // water-filling sees a well-defined marginal cost per segment.
    ShardFrontier front;
    for (const FrontierPoint& p : points) {
      if (!front.hull.empty() && p.load - front.hull.back().load < 1e-9) {
        continue;  // duplicate load level (thermal cap): keep the cheaper
      }
      while (front.hull.size() >= 2) {
        const FrontierPoint& a = front.hull[front.hull.size() - 2];
        const FrontierPoint& b = front.hull.back();
        // Pop b when slope(a,b) >= slope(b,p): b lies on or above a-p.
        if ((b.power_w - a.power_w) * (p.load - b.load) >=
            (p.power_w - b.power_w) * (b.load - a.load)) {
          front.hull.pop_back();
        } else {
          break;
        }
      }
      front.hull.push_back(p);
    }
    front.max_load = front.hull.empty() ? 0.0 : front.hull.back().load;
    fronts[shard] = std::move(front);
    obs::count("fleet.frontier_builds");
  });
  return frontiers_.emplace(key, std::move(fronts)).first->second;
}

std::vector<double> FleetEngine::split_load(
    const core::Scenario& scenario, double load,
    const std::vector<double>& shard_caps) const {
  if (shard_caps.size() != engines_.size()) {
    throw std::invalid_argument(
        util::strf("FleetEngine: split got %zu caps but the fleet has %zu "
                   "shards",
                   shard_caps.size(), engines_.size()));
  }
  const std::vector<ShardFrontier>& fronts = frontiers_for(scenario);

  struct Segment {
    double slope = 0.0;
    size_t shard = 0;
    size_t index = 0;
    double length = 0.0;
  };
  std::vector<Segment> segments;
  for (size_t shard = 0; shard < fronts.size(); ++shard) {
    const ShardFrontier& front = fronts[shard];
    const double cap = std::min(shard_caps[shard], front.max_load);
    for (size_t i = 0; i + 1 < front.hull.size(); ++i) {
      const FrontierPoint& p = front.hull[i];
      const FrontierPoint& q = front.hull[i + 1];
      const double hi = std::min(q.load, cap);
      if (hi <= p.load) break;  // everything further is beyond the cap
      segments.push_back(Segment{(q.power_w - p.power_w) / (q.load - p.load),
                                 shard, i, hi - p.load});
    }
  }
  // Cheapest marginal watt first; ties resolved by shard then segment
  // index so the split is a pure function of (topology, scenario, load).
  std::sort(segments.begin(), segments.end(),
            [](const Segment& x, const Segment& y) {
              if (x.slope != y.slope) return x.slope < y.slope;
              if (x.shard != y.shard) return x.shard < y.shard;
              return x.index < y.index;
            });

  std::vector<double> alloc(engines_.size(), 0.0);
  double remaining = load;
  for (const Segment& seg : segments) {
    if (remaining <= 0.0) break;
    if (seg.length >= remaining) {
      // Final partial segment takes the exact remainder, so the assigned
      // loads add up to the target without fp dust.
      alloc[seg.shard] += remaining;
      remaining = 0.0;
      break;
    }
    alloc[seg.shard] += seg.length;
    remaining -= seg.length;
  }
  return alloc;
}

FleetPlanResult FleetEngine::solve(const FleetPlanRequest& request,
                                   size_t workers) const {
  const size_t nshards = engines_.size();
  if (request.load < 0.0) {
    throw std::invalid_argument("FleetEngine: negative load");
  }
  if (request.load > total_capacity_ + 1e-9) {
    throw std::invalid_argument(
        util::strf("FleetEngine: load %.3f exceeds fleet capacity %.3f",
                   request.load, total_capacity_));
  }
  std::vector<std::vector<size_t>> quarantined(nshards);
  for (const ShardMachine& q : request.quarantined) {
    if (q.shard >= nshards) {
      throw std::invalid_argument(
          util::strf("FleetEngine: quarantine targets shard %zu but the "
                     "fleet has %zu shards",
                     q.shard, nshards));
    }
    const size_t shard_n = topology_.shards[q.shard].model->size();
    if (q.machine >= shard_n) {
      throw std::invalid_argument(util::strf(
          "FleetEngine: quarantine targets machine %zu in shard %zu (%s) "
          "but that room has %zu machines",
          q.machine, q.shard, topology_.shards[q.shard].name.c_str(),
          shard_n));
    }
    quarantined[q.shard].push_back(q.machine);
  }
  std::vector<char> down(nshards, 0);
  for (const size_t s : request.down_shards) {
    if (s >= nshards) {
      throw std::invalid_argument(
          util::strf("FleetEngine: down_shards names shard %zu but the "
                     "fleet has %zu shards",
                     s, nshards));
    }
    down[s] = 1;
  }
  std::vector<char> faulted(nshards, 0);
  for (const size_t s : request.fault_shards) {
    if (s >= nshards) {
      throw std::invalid_argument(
          util::strf("FleetEngine: fault_shards names shard %zu but the "
                     "fleet has %zu shards",
                     s, nshards));
    }
    faulted[s] = 1;
  }

  const double t0 = now_us();
  obs::SpanContext* const spans = request.spans;
  const int fleet_span = spans != nullptr ? spans->begin("fleet.solve") : -1;

  // Surviving capacity per shard: the frontier is sampled on the healthy
  // room; quarantines tighten the cap here and are planned exactly by the
  // shard's own (incremental) restricted solve. A shard with nothing
  // quarantined reads its engine's cached fold.
  std::vector<double> healthy_caps(nshards, 0.0);
  for (size_t s = 0; s < nshards; ++s) {
    if (quarantined[s].empty()) {
      healthy_caps[s] = engines_[s]->aggregates().total_capacity;
      continue;
    }
    const core::RoomModel& m = *topology_.shards[s].model;
    std::vector<char> mask(m.size(), 1);
    for (const size_t i : quarantined[s]) mask[i] = 0;
    for (size_t i = 0; i < m.size(); ++i) {
      if (mask[i] != 0) healthy_caps[s] += m.machines[i].capacity;
    }
  }
  // A down shard is a zero-capacity shard: the same water-filling that
  // splits the healthy fleet deterministically re-fills its share across
  // the survivors' remaining frontier segments.
  std::vector<double> caps = healthy_caps;
  for (size_t s = 0; s < nshards; ++s) {
    if (down[s] != 0) caps[s] = 0.0;
  }

  FleetPlanResult out;
  out.shard_status.assign(nshards, ShardStatus::kOk);
  for (size_t s = 0; s < nshards; ++s) {
    if (down[s] != 0) out.shard_status[s] = ShardStatus::kDown;
  }
  const int split_span = spans != nullptr ? spans->begin("fleet.split") : -1;
  out.shard_loads = split_load(request.scenario, request.load, caps);
  if (split_span >= 0) spans->end(split_span);
  out.shard_results.resize(nshards);

  util::ThreadPool* pool = nullptr;
  std::optional<util::ThreadPool> local;
  if (workers == 0) {
    pool = &default_pool();
  } else {
    local.emplace(workers);
    pool = &*local;
  }
  // Tracing across the fan-out uses pre-opened slots: the context's record
  // vector is fully sized here, each worker brackets only its own slot, and
  // the sub-requests carry spans = nullptr (the serial API is not safe
  // under parallel_for). Record order stays deterministic (slot order).
  std::vector<int> shard_spans;
  if (spans != nullptr) {
    shard_spans.resize(nshards);
    for (size_t s = 0; s < nshards; ++s) {
      shard_spans[s] = spans->open_slot("shard.engine.solve", fleet_span,
                                        static_cast<int64_t>(s));
    }
  }
  // Index-addressed slots + per-shard immutable engines: the schedule
  // cannot change a byte of the merged result. A shard whose solve throws
  // (a crash, or the fault_shards test seam) is marked down, its cap is
  // zeroed and the split recomputed, and the survivors re-solve — so a
  // crash mid-solve loses no load either. Each pass downs at least one
  // shard, bounding the loop at nshards passes; the thrown set is a pure
  // function of the request, keeping degraded plans bit-for-bit
  // reproducible.
  for (size_t pass = 0; pass < nshards + 1; ++pass) {
    pool->parallel_for(nshards, [&](size_t s) {
      if (spans != nullptr) spans->slot_begin(shard_spans[s]);
      if (out.shard_status[s] == ShardStatus::kDown) {
        if (spans != nullptr) spans->slot_end(shard_spans[s]);
        return;  // excluded: zero-duration span, untouched result slot
      }
      core::PlanRequest req(request.scenario, out.shard_loads[s],
                            quarantined[s]);
      req.shard = static_cast<int>(s);
      try {
        if (faulted[s] != 0) {
          throw std::runtime_error(
              util::strf("injected fault in shard %zu", s));
        }
        engines_[s]->solve_into(req, core::SolveScratch::local(),
                                out.shard_results[s]);
      } catch (const std::exception& e) {
        out.shard_results[s] = core::PlanResult{};
        out.shard_results[s].shard = static_cast<int>(s);
        out.shard_results[s].error = e.what();
      }
      if (spans != nullptr) spans->slot_end(shard_spans[s]);
    });
    bool crashed = false;
    for (size_t s = 0; s < nshards; ++s) {
      if (out.shard_status[s] == ShardStatus::kDown) continue;
      if (!out.shard_results[s].error.empty()) {
        out.shard_status[s] = ShardStatus::kDown;
        caps[s] = 0.0;
        crashed = true;
      }
    }
    if (!crashed) break;
    out.shard_loads = split_load(request.scenario, request.load, caps);
  }

  // Redistribution accounting: compare against the all-healthy split. A
  // survivor carrying more than its healthy share is degraded — still
  // serving, but paying for someone else's failure domain.
  if (out.shards_down() > 0) {
    const std::vector<double> healthy =
        split_load(request.scenario, request.load, healthy_caps);
    for (size_t s = 0; s < nshards; ++s) {
      if (out.shard_status[s] == ShardStatus::kDown) continue;
      const double extra = out.shard_loads[s] - healthy[s];
      if (extra > 1e-9) {
        out.redistributed_load += extra;
        out.shard_status[s] = ShardStatus::kDegraded;
      }
    }
  }

  double assigned = 0.0;
  for (const double l : out.shard_loads) assigned += l;
  out.unassigned_load = std::max(0.0, request.load - assigned);
  if (out.unassigned_load <= 1e-9) out.unassigned_load = 0.0;
  out.shed_load = out.unassigned_load;
  for (size_t s = 0; s < nshards; ++s) {
    const core::PlanResult& r = out.shard_results[s];
    if (out.shard_status[s] == ShardStatus::kDown) continue;
    if (r.plan) out.total_power_w += r.plan->allocation.total_power_w;
    out.shed_load += r.shed_load;
    if (r.shed_load > 0.0 && out.shard_status[s] == ShardStatus::kOk) {
      out.shard_status[s] = ShardStatus::kDegraded;
    }
  }
  if (fleet_span >= 0) spans->end(fleet_span);
  out.solve_us = now_us() - t0;

  obs::count("fleet.solves");
  obs::observe("fleet.solve_us", out.solve_us);
  if (out.shed_load > 0.0) obs::observe("fleet.shed_load", out.shed_load);
  obs::gauge_set("fleet.shards_down", static_cast<double>(out.shards_down()));
  obs::gauge_set("fleet.redistributed_load", out.redistributed_load);
  return out;
}

util::ThreadPool& FleetEngine::default_pool() const {
  std::scoped_lock lock(pool_mu_);
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>();
  return *pool_;
}

}  // namespace coolopt::fleet
