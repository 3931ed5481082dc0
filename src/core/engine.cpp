#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/baselines.h"
#include "core/scratch.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace coolopt::core {
namespace {

double now_us() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(t).count();
}

/// The final check accepts a plan whose hottest CPU is this far over the
/// margined T_max: room for rounding in the allocators' sums.
constexpr double kCeilingTolC = 1e-6;
/// How far over T_max the Even and Bottom-up rules' servable load lets a
/// machine run: the final check's allowance, less a 1e-9 C guard against
/// the rule's own rounding at that load. Their fills put a machine at its
/// capacity or at a shared level, never at its own cap, so they serve what
/// the check accepts: a machine whose thermal cap equals its capacity up to
/// rounding (the one conservative_t_ac is set by) runs at capacity.
constexpr double kRuleSlackC = kCeilingTolC - 1e-9;

/// Artifacts this thread has built (cache misses): a solve or rebalance
/// that leaves it unchanged ran on cached artifacts alone.
thread_local uint64_t t_builds = 0;

}  // namespace

PlanEngine::PlanEngine(SharedRoomModel model, PlannerOptions options)
    : model_(std::move(model)), options_(options) {
  if (!model_) throw std::invalid_argument("PlanEngine: null model");
  if (options_.t_max_margin == 0.0) {
    margin_model_ = model_;  // same object; no copy at all
  } else {
    RoomModel margined = *model_;
    margined.t_max -= options_.t_max_margin;
    margin_model_ = share_model(std::move(margined));
  }
  // The single validation pass for the whole solver stack: every cached
  // artifact below is built with kPreValidated.
  margin_model_->validate();
  fixed_t_ac_ = conservative_t_ac(*margin_model_);
}

PlanEngine::PlanEngine(RoomModel model, PlannerOptions options)
    : PlanEngine(share_model(std::move(model)), options) {}

PlanEngine::~PlanEngine() = default;

template <typename Build>
void PlanEngine::ensure(std::once_flag& once, Build&& build) const {
  bool built = false;
  std::call_once(once, [&] {
    build();
    built = true;
  });
  if (built) {
    ++t_builds;
    obs::count("engine.cache.miss", &counters_.cache_misses);
  }
}

void PlanEngine::count_cache_hit(uint64_t builds_before) const {
  if (t_builds == builds_before) {
    obs::count("engine.cache.hit", &counters_.cache_hits);
  }
}

const ModelAggregates& PlanEngine::aggregates() const {
  ensure(aggregates_once_, [&] {
    const RoomModel& m = *margin_model_;
    auto agg = std::make_unique<ModelAggregates>();
    const size_t n = m.size();
    agg->total_capacity = m.total_capacity();
    agg->uniform_w1 = m.uniform_w1();
    agg->uniform_w2 = m.uniform_w2();
    agg->all_machines.resize(n);
    std::iota(agg->all_machines.begin(), agg->all_machines.end(), size_t{0});
    agg->coolness = coolness_order(m);
    agg->capacity_desc = agg->all_machines;
    std::sort(agg->capacity_desc.begin(), agg->capacity_desc.end(),
              [&](size_t x, size_t y) {
                return m.machines[x].capacity > m.machines[y].capacity;
              });
    agg->idle_asc = agg->all_machines;
    std::sort(agg->idle_asc.begin(), agg->idle_asc.end(),
              [&](size_t x, size_t y) {
                return m.machines[x].power.w2 < m.machines[y].power.w2;
              });
    agg->soa = RoomSoA::from(m);
    aggregates_ = std::move(agg);
  });
  return *aggregates_;
}

const AnalyticOptimizer* PlanEngine::analytic() const {
  ensure(analytic_once_, [&] {
    const ModelAggregates& agg = aggregates();
    if (!agg.uniform_w1) return;  // heterogeneous: no closed form
    analytic_ = std::make_unique<AnalyticOptimizer>(
        margin_model_, std::shared_ptr<const RoomSoA>(aggregates_, &agg.soa),
        kPreValidated);
  });
  return analytic_.get();
}

const BoundedOptimizer& PlanEngine::bounded() const {
  ensure(bounded_once_, [&] {
    const ModelAggregates& agg = aggregates();
    bounded_ = std::make_unique<BoundedOptimizer>(
        margin_model_, std::shared_ptr<const RoomSoA>(aggregates_, &agg.soa),
        kPreValidated);
  });
  return *bounded_;
}

const IncrementalConsolidator* PlanEngine::consolidator() const {
  ensure(consolidator_once_, [&] {
    const ModelAggregates& agg = aggregates();
    if (agg.uniform_w1 && agg.uniform_w2) {
      consolidator_ =
          std::make_unique<IncrementalConsolidator>(margin_model_, kPreValidated);
    }
  });
  return consolidator_.get();
}

const ParticleSystem* PlanEngine::particles() const {
  const IncrementalConsolidator* cons = consolidator();
  return cons != nullptr ? &cons->particles() : nullptr;
}

bool PlanEngine::exact_paths() const { return aggregates().uniform_w1; }

bool PlanEngine::plan_optimal_into(const size_t* on_set, size_t count,
                                   double load, SolveScratch& scr,
                                   Allocation& out,
                                   bool& closed_form_pure) const {
  if (const AnalyticOptimizer* cf_opt = analytic()) {
    cf_opt->solve_into(on_set, count, load, scr.cf);
    if (scr.cf.within_bounds()) {
      closed_form_pure = true;
      // The result swaps out; the slot's old buffers land in the closed-form
      // workspace for the next solve to reuse.
      std::swap(out, scr.cf.allocation);
      return true;
    }
  }
  // Either a heterogeneous fleet (no closed form at all) or the paper's
  // assumptions broke on this instance (negative load, over-capacity load,
  // T_ac outside the CRAC range): solve with the bounds restored instead.
  closed_form_pure = false;
  return bounded().solve_into(on_set, count, load, scr.bounded, out);
}

void PlanEngine::survivor_lists(SolveScratch& scr) const {
  if (!scr.allowed.empty()) return;
  const ModelAggregates& agg = aggregates();
  scr.allowed_capacity = 0.0;
  for (size_t i = 0; i < scr.mask.size(); ++i) {
    if (!scr.mask[i]) continue;
    scr.allowed.push_back(i);
    scr.allowed_capacity += agg.soa.capacity[i];
  }
  scr.order.clear();
  for (const size_t i : agg.coolness) {
    if (scr.mask[i]) scr.order.push_back(i);
  }
}

const std::vector<size_t>& PlanEngine::machines_for(bool restricted,
                                                    SolveScratch& scr) const {
  if (!restricted) return aggregates().all_machines;
  survivor_lists(scr);
  return scr.allowed;
}

const std::vector<size_t>& PlanEngine::coolness_for(bool restricted,
                                                    SolveScratch& scr) const {
  if (!restricted) return aggregates().coolness;
  survivor_lists(scr);
  return scr.order;
}

bool PlanEngine::compute_plan_into(const Scenario& s, double load,
                                   bool restricted,
                                   const std::vector<size_t>* forced,
                                   SolveScratch& scr, Plan& out) const {
  const RoomModel& fitted = *model_;
  const RoomModel& planning = *margin_model_;
  const ModelAggregates& agg = aggregates();

  out.scenario = s;
  out.load = load;
  out.closed_form_pure = true;  // the fresh-Plan default; `out` is reused

  // Zero load with consolidation: everything off (no allocator needed).
  if (load <= 1e-12 && s.consolidation) {
    out.allocation.loads.assign(fitted.size(), 0.0);
    out.allocation.on.assign(fitted.size(), false);
    out.allocation.t_ac = fitted.t_ac_max;
    out.allocation.finalize(fitted, agg.soa);
    return true;
  }

  // --- choose the ON set and the load split ---
  if (s.distribution == Distribution::kOptimal) {
    bool have_best = false;
    bool best_pure = true;
    if (!s.consolidation || forced != nullptr) {
      const std::vector<size_t>& on_set =
          forced != nullptr ? *forced : machines_for(restricted, scr);
      have_best = plan_optimal_into(on_set.data(), on_set.size(), load, scr,
                                    scr.best_alloc, best_pure);
    } else {
      have_best = consolidate_into(load, restricted, scr, best_pure);
    }
    if (!have_best) return false;
    std::swap(out.allocation, scr.best_alloc);
    out.closed_form_pure = best_pure;
  } else {
    // Consolidation keeps the fewest coolest machines that cover the load
    // ON; Bottom-up fills its machines coolest-first.
    const std::vector<size_t>& order = coolness_for(restricted, scr);
    if (s.consolidation) {
      const size_t k = min_machines_for(planning, load, order);
      scr.subset.assign(order.begin(), order.begin() + static_cast<long>(k));
    }
    if (s.distribution == Distribution::kEven) {
      even_allocation(planning, load,
                      s.consolidation ? scr.subset : machines_for(restricted, scr),
                      out.allocation);
    } else {
      bottom_up_allocation(planning, load, s.consolidation ? scr.subset : order,
                           out.allocation);
    }
  }

  // --- choose the cool-air temperature ---
  if (s.distribution == Distribution::kOptimal) {
    // Already chosen jointly with the loads, and the solver's finalize
    // priced it (same coefficients, same cooler); keep it inside actuation
    // range (clamping down is always safe, it only over-cools) and re-price
    // only when the clamp moved it.
    const double t_ac =
        std::clamp(out.allocation.t_ac, fitted.t_ac_min, fitted.t_ac_max);
    if (t_ac != out.allocation.t_ac) {
      out.allocation.t_ac = t_ac;
      out.allocation.finalize(fitted, agg.soa);
    }
  } else {
    out.allocation.t_ac =
        s.ac_control ? max_safe_t_ac(planning, agg.soa, out.allocation.loads,
                                     out.allocation.on)
                     : fixed_t_ac_;
    out.allocation.finalize(fitted, agg.soa);
  }

  // --- final safety check against the margined ceiling (an all-OFF plan
  // peaks at -inf and passes) ---
  return predicted_peak_cpu_temp(agg.soa, out.allocation) <=
         planning.t_max + kCeilingTolC;
}

bool PlanEngine::consolidate_into(double load, bool restricted,
                                  SolveScratch& scr, bool& best_pure) const {
  const RoomModel& planning = *margin_model_;
  const ModelAggregates& agg = aggregates();

  // Restricted solves drop the quarantined machines (scr.mask) from the
  // cached heuristic orders, and only once a heuristic subset is probed:
  // most walks end at the closed form on their first candidate.
  const auto survivors = [&](const std::vector<size_t>& base,
                             std::vector<size_t>& dst)
      -> const std::vector<size_t>* {
    if (!restricted) return &base;
    dst.clear();
    for (const size_t i : base) {
      if (scr.mask[i]) dst.push_back(i);
    }
    return &dst;
  };
  const std::vector<size_t>* by_capacity = nullptr;

  bool have_best = false;
  // Keeps the cheaper of the incumbent and this subset's plan; true when
  // the closed form alone served the subset.
  const auto probe_subset = [&](const size_t* sub, size_t count) {
    bool pure = true;
    const bool ok =
        plan_optimal_into(sub, count, load, scr, scr.trial_alloc, pure);
    if (ok && (!have_best || scr.trial_alloc.total_power_w <
                                 scr.best_alloc.total_power_w - 1e-12)) {
      std::swap(scr.best_alloc, scr.trial_alloc);
      have_best = true;
      best_pure = pure;
    }
    return ok && pure;
  };
  // One candidate k. The leading subset is the relaxation's optimal
  // k-subset; when its closed form lands within bounds it attains the
  // k-wide lower bound, so no heuristic subset of the same k can improve on
  // it — skip them and their bounded fallbacks. When the closed form fails
  // bounds (capacities are invisible to the particle reduction), the
  // capacity-greedy and coolest-first k-subsets are the recovery, and run.
  const auto probe_k = [&](size_t k, const size_t* first) {
    if (probe_subset(first, k)) return true;
    if (by_capacity == nullptr) {
      by_capacity = survivors(agg.capacity_desc, scr.capacity_order);
    }
    probe_subset(by_capacity->data(), k);
    probe_subset(coolness_for(restricted, scr).data(), k);
    return false;
  };

  // The on-demand select over the cached particle classes, through this
  // thread's view: every machine, or a restricted solve's survivors.
  const IncrementalConsolidator* cons = consolidator();
  detail::ClassSelector::View* view = nullptr;
  if (cons != nullptr) {
    view = &scr.select;
    if (restricted) {
      view->reset(cons->table(), scr.mask, scr.quarantined);
      obs::count("engine.incremental.replans", &counters_.incremental_replans);
    } else {
      view->reset(cons->table());
    }
  }

  // The candidates, best first: the select's (k, t) entries by their
  // Eq. 23 relaxation power, or just the head scan's winner while the walk
  // needs no more. A heterogeneous room has no particle reduction: it walks
  // a window of ON-set sizes above the capacity minimum, each led by the
  // idle-draw prefix (cheap-idle nodes for padding), with no bound.
  const std::vector<size_t>* idle = nullptr;
  detail::ClassSelector::Head head;
  // The scan's folded idle draw is the ranking's machine-by-machine sum
  // only when every w2 is the same double.
  const bool from_head = cons != nullptr && cons->particles().w2_identical;
  scr.ranked.clear();
  if (cons == nullptr) {
    idle = survivors(agg.idle_asc, scr.idle_order);
    by_capacity = survivors(agg.capacity_desc, scr.capacity_order);
    const size_t k_min = min_machines_for(planning, load, *by_capacity);
    const size_t k_hi = std::min(by_capacity->size(), k_min + 4);
    for (size_t k = std::max<size_t>(1, k_min); k <= k_hi; ++k) {
      scr.ranked.push_back(RankEntry{k, 0.0, -HUGE_VAL});
    }
  } else if (!from_head) {
    cons->rank_all_k_into(load, scr.ranked, view);
  } else if (cons->table().scan_head(cons->particles(), planning, load, head,
                                     view)) {
    scr.ranked.push_back(RankEntry{head.k, head.t, head.power});
  }

  // Branch and bound: a candidate's power is the Eq. 23 relaxation
  // (capacity and nonnegativity dropped; both can only lower T_ac, i.e.
  // raise power), so it lower-bounds every bounded plan of its own k — and,
  // since the ranking ascends in predicted power, of every later candidate
  // too. Once the incumbent is at or below the next candidate's bound,
  // nothing further can win, which collapses the walk from O(n) bounded
  // probes to the one or two leaders.
  const auto beaten = [&](double bound) {
    return have_best && bound >= scr.best_alloc.total_power_w - 1e-12;
  };
  // An entry's subset is the top k at its operating time (of the
  // survivors, in a restricted solve), copied only when the walk probes it.
  const auto table_subset = [&](const RankEntry& e) {
    cons->table().top_k_into(e.t, e.k, scr.subset, view);
    return scr.subset.data();
  };
  for (size_t i = 0; i < scr.ranked.size(); ++i) {
    const RankEntry cand = scr.ranked[i];  // a ranking below may rewrite it
    if (beaten(cand.predicted_total_power_w)) break;
    const bool pure =
        probe_k(cand.k, cons != nullptr ? table_subset(cand) : idle->data());
    if (from_head && i == 0) {
      // The runner-up's power bounds every other entry. When the head's plan
      // beats it, the walk ends without a ranking; otherwise it resumes at
      // the full ranking's second entry (its first is this head).
      if (!head.has_runner_up || beaten(head.runner_up_power)) {
        if (pure) obs::count("engine.path.ranked_head", &counters_.memo_hits);
        break;
      }
      cons->rank_all_k_into(load, scr.ranked, view);
    }
  }
  return have_best;
}

double PlanEngine::servable_load(const Scenario& s, double load,
                                 bool restricted, SolveScratch& scr) const {
  const RoomModel& planning = *margin_model_;
  const BoundedOptimizer& caps = bounded();
  const std::vector<size_t>& machines = machines_for(restricted, scr);
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  if (s.distribution == Distribution::kOptimal) {
    // Every cap is largest at t_ac_min, and the bounded solver fills the
    // machines it is given up to their caps, so the surviving machines
    // carry any load up to the sum of their caps. The fold runs in index
    // order: when every capacity binds it is the allowed capacity bit for
    // bit, so a request for all of it is planned at all of it.
    scr.subset.clear();
    double total = 0.0;
    for (const size_t i : machines) {
      const double u = caps.cap(i, planning.t_ac_min);
      if (u < 0.0) {
        if (!s.consolidation) return -1.0;  // it would idle over T_max
        continue;
      }
      scr.subset.push_back(i);
      total += u;
    }
    return std::min(load, total);
  }

  // The fixed rules run at t_ac_min under AC control (the hottest safe air
  // never beats it) and at the fixed conservative T_ac otherwise.
  const double t = s.ac_control ? planning.t_ac_min : fixed_t_ac_;
  const auto cap_at = [&](size_t i) { return caps.cap(i, t, kRuleSlackC); };
  const std::vector<size_t>& order = coolness_for(restricted, scr);
  if (!s.consolidation) {
    // Every allowed machine stays ON, so each must survive its idle draw.
    for (const size_t i : machines) {
      if (cap_at(i) < 0.0) return -1.0;
    }
  }

  if (s.distribution == Distribution::kBottomUp) {
    // The coolest-first fill is servable up to the first machine that cannot
    // run at capacity, plus what that machine carries.
    double covered = 0.0;
    for (const size_t i : order) {
      const double capacity = planning.machines[i].capacity;
      const double u = cap_at(i);
      if (u < capacity) return std::min(load, covered + std::max(0.0, u));
      covered += capacity;
      if (covered >= load) break;
    }
    return load;
  }

  if (!s.consolidation) {
    // Even water level: every machine gets min(capacity, level), and the
    // level may rise no higher than the smallest cap below a capacity.
    double level = kUnbounded;
    for (const size_t i : machines) {
      const double u = cap_at(i);
      if (u < planning.machines[i].capacity) level = std::min(level, u);
    }
    if (level == kUnbounded) return load;
    double total = 0.0;
    for (const size_t i : machines) {
      total += std::min(planning.machines[i].capacity, level);
    }
    return std::min(load, total);
  }

  // Even with consolidation (Fig. 8's variant): a load L runs on the
  // coolness prefix min_machines_for picks, so each prefix k serves the
  // loads in (C_{k-1}, C_k] up to its own water-level cap. A larger prefix
  // spreads the load thinner, so feasibility is not monotone in L: scan
  // every prefix up to the request's and keep the last servable one. The
  // prefix sum under the lowest binding cap is refolded when that cap
  // drops, O(n^2) at worst.
  double best = 0.0;  // zero load: everything OFF
  double covered = 0.0;
  double level = kUnbounded;
  double top = 0.0;  // sum over the prefix of min(capacity, level)
  for (size_t k = 0; k < order.size(); ++k) {
    const double capacity = planning.machines[order[k]].capacity;
    const double u = cap_at(order[k]);
    if (u < capacity && u < level) {
      if (u < 0.0) break;  // every longer prefix holds this machine
      level = u;
      top = 0.0;
      for (size_t j = 0; j <= k; ++j) {
        top += std::min(planning.machines[order[j]].capacity, level);
      }
    } else {
      top += std::min(capacity, level);
    }
    const double below = covered;
    covered += capacity;
    const bool last = covered >= load - 1e-9;
    const double reach = last ? load : covered;
    const double candidate = level == kUnbounded ? reach : std::min(reach, top);
    if (!(below >= candidate - 1e-9)) best = candidate;
    if (last) break;
  }
  return best;
}

PlanResult PlanEngine::solve(const PlanRequest& request) const {
  PlanResult result;
  solve_into(request, SolveScratch::local(), result);
  return result;
}

void PlanEngine::solve_into(const PlanRequest& request, SolveScratch& scr,
                            PlanResult& result) const {
  const uint64_t builds_before = t_builds;
  const ModelAggregates& agg = aggregates();
  if (request.load < 0.0) {
    throw std::invalid_argument("PlanEngine: negative load");
  }
  if (request.load > agg.total_capacity + 1e-9) {
    throw std::invalid_argument(
        util::strf("PlanEngine: load %.3f exceeds room capacity %.3f",
                   request.load, agg.total_capacity));
  }
  const size_t n = model_->size();
  for (size_t idx : request.quarantined) {
    if (idx >= n) {
      throw std::invalid_argument(
          util::strf("PlanEngine: quarantined index %zu out of range "
                     "(model has %zu machines)",
                     idx, n));
    }
  }

  result.error.clear();
  result.shard = request.shard;
  result.shed_load = 0.0;
  result.shed_priority.clear();
  const double t0 = now_us();
  // Tracing: one serial span covering the whole solve. The context's
  // record vector is grow-only, so a reused context keeps the warm path
  // allocation-free (guarded by WarmTracedSolveIsAllocationFree).
  const int solve_span =
      request.spans != nullptr ? request.spans->begin("engine.solve") : -1;

  // Demand above the surviving capacity is shed, not an error — only the
  // full-fleet capacity check above throws. A restricted solve marks its
  // survivors in scr.mask (one fill, one write per listed machine); the
  // survivor lists and their exact index-order capacity are built only
  // when something reads them (survivor_lists; an empty scr.allowed means
  // not built yet).
  const bool restricted = !request.quarantined.empty();
  double serveable = std::min(request.load, agg.total_capacity);
  size_t survivors = n;
  if (restricted) {
    scr.mask.assign(n, 1);
    scr.quarantined.clear();
    scr.allowed.clear();
    // Sized with the mask, so building the lists later in a warm solve
    // never grows them.
    scr.quarantined.reserve(n);
    scr.allowed.reserve(n);
    scr.order.reserve(n);
    double quarantined_capacity = 0.0;
    for (const size_t idx : request.quarantined) {
      if (!scr.mask[idx]) continue;  // listed twice
      scr.mask[idx] = 0;
      scr.quarantined.push_back(idx);
      quarantined_capacity += agg.soa.capacity[idx];
    }
    survivors -= scr.quarantined.size();
    // The survivors' capacity caps the load only when the load can reach
    // it. Each of the three folds (the room's, the quarantined machines',
    // the survivors') is off by at most n ulps of the room's capacity, so
    // a load this far below their difference is below the survivors'
    // index-order fold too, and min(load, fold) is the load itself.
    const double slack = 4.0 * static_cast<double>(n + 1) *
                         std::numeric_limits<double>::epsilon() *
                         agg.total_capacity;
    if (survivors > 0 &&
        !(request.load <= agg.total_capacity - quarantined_capacity - slack)) {
      survivor_lists(scr);
      serveable = std::min(request.load, scr.allowed_capacity);
    }
  }

  double achieved = 0.0;
  // Never emplace over an engaged optional: that would destroy (and so
  // free) the previous plan's buffers this warm path is reusing.
  if (!result.plan) result.plan.emplace();
  Plan& plan = *result.plan;
  if (survivors == 0) {
    // Whole fleet quarantined: the best effort is an all-off room.
    plan.scenario = request.scenario;
    plan.load = 0.0;
    plan.closed_form_pure = true;
    plan.allocation.loads.assign(n, 0.0);
    plan.allocation.on.assign(n, false);
    plan.allocation.t_ac = model_->t_ac_max;
    plan.allocation.finalize(*model_, agg.soa);
  } else {
    // A request the plan cannot serve as asked is planned once more, at
    // the largest load the scenario's rule carries. An Optimal plan there,
    // or one the consolidation search missed below it, runs on every
    // machine that survives at t_ac_min (servable_load leaves them in
    // scr.subset): together they carry any load up to that maximum.
    const Scenario& s = request.scenario;
    bool ok = compute_plan_into(s, serveable, restricted, nullptr, scr, plan);
    if (!ok) {
      const bool optimal = s.distribution == Distribution::kOptimal;
      const double limit = servable_load(s, serveable, restricted, scr);
      if (limit >= 0.0 && (optimal || limit < serveable)) {
        ok = compute_plan_into(s, limit, restricted,
                               optimal ? &scr.subset : nullptr, scr, plan);
      }
    }
    if (ok) {
      achieved = plan.load;
    } else {
      result.plan.reset();
    }
  }

  result.shed_load = std::max(0.0, request.load - achieved);
  if (result.shed_load <= 1e-9) result.shed_load = 0.0;
  if (result.shed_load > 0.0) {
    // Shedding order: quarantined machines first (their load is already
    // gone), each once in first-appearance order, then the survivors from
    // thermally worst to best — the order a supervisor should walk when it
    // must drop more work.
    if (restricted) {
      result.shed_priority.assign(scr.quarantined.begin(),
                                  scr.quarantined.end());
    }
    for (auto it = agg.coolness.rbegin(); it != agg.coolness.rend(); ++it) {
      if (!restricted || scr.mask[*it] != 0) {
        result.shed_priority.push_back(*it);
      }
    }
  }
  // Leave every slot sized for the room, including one the swaps above
  // just filled with a fresh result's empty buffer.
  scr.reserve_for(n);
  if (solve_span >= 0) request.spans->end(solve_span);
  result.solve_us = now_us() - t0;

  obs::count("engine.solves", &counters_.solves);
  count_cache_hit(builds_before);
  obs::observe("engine.solve_us", result.solve_us);
  if (!result.plan) {
    obs::count("engine.infeasible", &counters_.infeasible);
  } else if (request.scenario.distribution == Distribution::kOptimal) {
    if (result.plan->closed_form_pure) {
      obs::count("engine.path.closed_form", &counters_.closed_form);
    } else {
      obs::count("engine.path.lp_fallback", &counters_.lp_fallback);
    }
  }
  if (result.shed_load > 0.0) {
    obs::count("engine.degraded", &counters_.degraded);
    obs::observe("engine.shed_load", result.shed_load);
  }
  if (obs::metrics() != nullptr) {
    obs::gauge_set("engine.alloc_bytes", static_cast<double>(scr.bytes()));
  }
}

void PlanEngine::solve_batch_into(std::span<const PlanRequest> requests,
                                  std::vector<PlanResult>& results,
                                  size_t workers) const {
  results.resize(requests.size());
  if (requests.empty()) return;

  const double t0 = now_us();
  util::ThreadPool* pool = nullptr;
  std::optional<util::ThreadPool> local;
  if (workers == 0) {
    pool = &default_pool();
  } else {
    local.emplace(workers);
    pool = &*local;
  }
  obs::gauge_set("engine.batch.workers", static_cast<double>(pool->worker_count()));

  // Results land in index-addressed slots and every worker solves against
  // the same immutable cached artifacts, so the worker schedule cannot
  // change the output: element i is bit-for-bit what solve(requests[i])
  // returns (modulo the wall-clock solve_us field). The lambda captures one
  // reference to a stack context (not the three pointers separately) so it
  // fits std::function's small-buffer storage — no per-batch closure
  // allocation.
  struct BatchContext {
    const PlanEngine* engine;
    const PlanRequest* requests;
    PlanResult* results;
  };
  BatchContext ctx{this, requests.data(), results.data()};
  pool->parallel_for(requests.size(), [&ctx](size_t i) {
    try {
      ctx.engine->solve_into(ctx.requests[i], SolveScratch::local(),
                             ctx.results[i]);
    } catch (const std::exception& e) {
      PlanResult& r = ctx.results[i];
      r.plan.reset();
      r.error = e.what();
      r.solve_us = 0.0;
      r.shard = ctx.requests[i].shard;
      r.shed_load = 0.0;
      r.shed_priority.clear();
    }
  });

  obs::count("engine.batch.batches", &counters_.batches);
  obs::count("engine.batch.requests", &counters_.batch_requests,
             static_cast<uint64_t>(requests.size()));
  obs::observe("engine.batch.latency_us", now_us() - t0);
}

bool PlanEngine::rebalance_into(const std::vector<size_t>& on_set, double load,
                                SolveScratch& scratch, Allocation& out) const {
  obs::count("engine.rebalances", &counters_.rebalances);
  const uint64_t builds_before = t_builds;
  const bool ok = bounded().solve_into(on_set.data(), on_set.size(), load,
                                       scratch.bounded, out);
  count_cache_hit(builds_before);
  return ok;
}

util::ThreadPool& PlanEngine::default_pool() const {
  std::scoped_lock lock(pool_mu_);
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>();
  return *pool_;
}

EngineCounters PlanEngine::counters() const {
  EngineCounters c;
  c.solves = obs::load_counter(counters_.solves);
  c.infeasible = obs::load_counter(counters_.infeasible);
  c.degraded = obs::load_counter(counters_.degraded);
  c.closed_form = obs::load_counter(counters_.closed_form);
  c.lp_fallback = obs::load_counter(counters_.lp_fallback);
  c.rebalances = obs::load_counter(counters_.rebalances);
  c.batches = obs::load_counter(counters_.batches);
  c.batch_requests = obs::load_counter(counters_.batch_requests);
  c.cache_hits = obs::load_counter(counters_.cache_hits);
  c.cache_misses = obs::load_counter(counters_.cache_misses);
  c.incremental_replans = obs::load_counter(counters_.incremental_replans);
  c.incremental_cold_builds =
      obs::load_counter(counters_.incremental_cold_builds);
  c.incremental_event_rebuilds =
      obs::load_counter(counters_.incremental_event_rebuilds);
  c.memo_hits = obs::load_counter(counters_.memo_hits);
  return c;
}

}  // namespace coolopt::core
