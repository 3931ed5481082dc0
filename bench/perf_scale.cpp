// Datacenter-scale planning performance: what the sharded FleetEngine and
// the masked Algorithm 1 query buy as the fleet grows to 10k+
// machines, on SKU-structured rooms (a handful of machine classes
// replicated across slots — the regime real fleets live in, and the one
// where the event table stays compact at any n).
//
// Two timings per case, both COLD (construction included):
//
//   monolithic   one PlanEngine over all n machines: full Algorithm 1
//                preprocess + one consolidated solve;
//   fleet        partition_room(n, shards) + FleetEngine::solve: parallel
//                per-shard preprocess behind the frontier sampling, the
//                water-filling split, parallel shard solves and the merge.
//
// Plus the warm fleet at the largest n and 8 shards, the one the fleetplan
// verb serves: the median warm FleetEngine::solve over a cycle of loads at
// 15-35% of capacity, against the same 8 shard solve_into calls run
// serially. Both run with the thread pinned to one CPU, as perfbench pins
// cooloptd, so their ratio is what a fleetplan pays around its shard
// solves (the split, the fan-out, the merge) rather than a parallel
// speedup the host's CPU count decides.
//
// Plus the replan-vs-rebuild comparison: with a warm table, quarantine ONE
// machine and replan (set_active + the masked query_best_into) against a
// cold build over the survivors, with the room's event list, answering the
// same query (the table a masked query must equal bit for bit).
//
// Gates (exit nonzero when missed):
//   * fleet cold solve at the largest n beats the monolithic cold solve at
//     one of the swept shard counts;
//   * masked replan >= 10x the cold rebuild at every n >= 2000;
//   * the warm fleet solve costs at most kWarmOverheadBound times its
//     serial shard solves;
//   * every fleet shard entry is bit-for-bit the shard engine's own
//     answer, and the masked choice/ranking is bit-for-bit the cold
//     rebuild's, at every n.
//
// Writes BENCH_scale.json (bench/report.h).

#include <algorithm>
#include <string>
#include <vector>

#include "bench/cpu_pin.h"
#include "bench/report.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "core/scratch.h"
#include "fleet/fleet_engine.h"
#include "obs/session.h"

using namespace coolopt;

namespace {

/// Operating point: 20% of the (headroom-inflated) nameplate capacity,
/// i.e. 60% of the nominal synthetic capacity — the paper's mid-load
/// regime, far from both the thermal ceiling and the per-machine caps.
constexpr double kLoadFrac = 0.2;

/// Bound of the warm fleet's overhead gate: a warm FleetEngine::solve over
/// the serial time of its own shard solves. 20 runs on a 4-thread host
/// read 1.07-1.12; while every solve folded the fleet's capacity twice
/// and woke a pool sized to the host, the same 20 runs read 1.78-2.10.
constexpr double kWarmOverheadBound = 1.4;

bool choices_identical(const core::ConsolidationChoice& a,
                       const core::ConsolidationChoice& b) {
  return a.k == b.k && a.on_set == b.on_set && a.t_ac == b.t_ac &&
         a.predicted_total_power_w == b.predicted_total_power_w;
}

/// The choice is the ranking entry: same k, same segment (so the same
/// subset, its top k) and the same predicted power.
bool choice_is_entry(const core::ConsolidationChoice& c,
                     const core::RankEntry& e) {
  return c.k == e.k && c.segment == e.segment &&
         c.predicted_total_power_w == e.predicted_total_power_w;
}

bool entries_identical(const core::RankEntry& a, const core::RankEntry& b) {
  return a.k == b.k && a.segment == b.segment &&
         a.predicted_total_power_w == b.predicted_total_power_w;
}

struct ColdSolve {
  double ms = 0.0;
  double total_power_w = 0.0;
  bool identical = true;  ///< fleet only: shard entries == direct solves
};

/// Cold monolithic reference: construct + one consolidated solve.
ColdSolve run_monolithic(const core::RoomModel& room, double load) {
  const auto t0 = std::chrono::steady_clock::now();
  core::PlanEngine engine(room);
  const core::PlanResult result =
      engine.solve(core::PlanRequest(core::Scenario::by_number(8), load));
  ColdSolve mono;
  mono.ms = bench::ms_since(t0);
  mono.total_power_w =
      result.plan ? result.plan->allocation.total_power_w : 0.0;
  return mono;
}

/// partition_room + one FleetEngine::solve, cold.
ColdSolve run_fleet(const core::RoomModel& room, size_t shards, double load) {
  const auto t0 = std::chrono::steady_clock::now();
  fleet::FleetEngine engine(fleet::partition_room(room, shards));
  fleet::FleetPlanRequest request;
  request.load = load;
  const fleet::FleetPlanResult result = engine.solve(request);
  ColdSolve r;
  r.ms = bench::ms_since(t0);
  r.total_power_w = result.total_power_w;

  // Every merged shard entry must be bit-for-bit what that shard's engine
  // answers directly for its assigned load.
  r.identical = result.feasible();
  for (size_t s = 0; s < shards && r.identical; ++s) {
    core::PlanRequest direct(request.scenario, result.shard_loads[s]);
    direct.shard = static_cast<int>(s);
    const core::PlanResult again = engine.engine(s).solve(direct);
    const core::PlanResult& merged = result.shard_results[s];
    r.identical = again.plan.has_value() && merged.plan.has_value() &&
                  again.plan->allocation.on == merged.plan->allocation.on &&
                  again.plan->allocation.loads ==
                      merged.plan->allocation.loads &&
                  again.plan->allocation.total_power_w ==
                      merged.plan->allocation.total_power_w;
  }
  return r;
}

struct WarmFleet {
  double solve_us = 0.0;         ///< median warm FleetEngine::solve
  double shard_solves_us = 0.0;  ///< its shard solve_into calls, serially
  double overhead = 0.0;         ///< median per-sample ratio of the two
};

/// Warm fleet solves over a 16-load cycle at 15-35% of capacity, and the
/// same shard solves run serially into reused results, both per fleet
/// request. The engine is built pinned, so its pool is sized to one CPU.
/// Each sample times a lap of each back to back, so a noisy stretch of
/// the host lands on both sides of that sample's ratio.
WarmFleet run_warm_fleet(const core::RoomModel& room, size_t shards) {
  const bench::PinToOneCpu pin;
  const fleet::FleetEngine engine(fleet::partition_room(room, shards));
  constexpr size_t kLoads = 16;
  std::vector<fleet::FleetPlanRequest> requests(kLoads);
  std::vector<core::PlanRequest> shard_requests;
  for (size_t l = 0; l < kLoads; ++l) {
    const double frac =
        0.15 + 0.2 * static_cast<double>(l) / static_cast<double>(kLoads - 1);
    requests[l].load = frac * engine.total_capacity();
    const fleet::FleetPlanResult warm = engine.solve(requests[l]);
    for (size_t s = 0; s < shards; ++s) {
      core::PlanRequest req(requests[l].scenario, warm.shard_loads[s]);
      req.shard = static_cast<int>(s);
      shard_requests.push_back(req);
    }
  }
  std::vector<core::PlanResult> results(shards);
  const auto fleet_lap = [&] {
    for (const fleet::FleetPlanRequest& req : requests) {
      bench::keep(engine.solve(req).total_power_w);
    }
  };
  const auto shard_lap = [&] {
    for (size_t i = 0; i < shard_requests.size(); ++i) {
      core::PlanResult& out = results[i % shards];
      engine.engine(i % shards)
          .solve_into(shard_requests[i], core::SolveScratch::local(), out);
      bench::keep(out.shed_load);
    }
  };
  shard_lap();  // warms the reused results

  constexpr size_t kSamples = 15;
  constexpr size_t kLapsPerSample = 4;
  std::vector<double> fleet_us;
  std::vector<double> shard_us;
  std::vector<double> ratios;
  for (size_t r = 0; r < kSamples; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t lap = 0; lap < kLapsPerSample; ++lap) fleet_lap();
    const double f = bench::us_since(t0) / (kLapsPerSample * kLoads);
    t0 = std::chrono::steady_clock::now();
    for (size_t lap = 0; lap < kLapsPerSample; ++lap) shard_lap();
    const double s = bench::us_since(t0) / (kLapsPerSample * kLoads);
    fleet_us.push_back(f);
    shard_us.push_back(s);
    ratios.push_back(s > 0.0 ? f / s : 0.0);
  }
  return WarmFleet{bench::median(std::move(fleet_us)),
                   bench::median(std::move(shard_us)),
                   bench::median(std::move(ratios))};
}

/// Warm table + one-machine quarantine replan (set_active + the masked
/// query_best_into) vs a cold build over the survivors with the room's
/// events answering the same query. Adds the timing rows (a gate at
/// n >= 2000); returns whether the masked answers are bit-for-bit the
/// rebuilt table's.
bool incremental_rows(bench::Report& report,
                      const core::SharedRoomModel& model, double load) {
  const size_t n = model->size();
  core::IncrementalConsolidator inc(model, core::kPreValidated);
  const core::ParticleSystem& ps = inc.particles();
  std::vector<char> mask(n, 1);
  core::ConsolidationChoice best;
  inc.set_active(mask);  // warm: sizes the mask's cursors (untimed)
  inc.query_best_into(load, best);

  mask[n / 2] = 0;  // one machine quarantined
  auto t0 = std::chrono::steady_clock::now();
  inc.set_active(mask);
  const bool found = inc.query_best_into(load, best);
  const double replan_ms = bench::ms_since(t0);

  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < n; ++i) {
    if (mask[i] != 0) ids.push_back(i);
  }
  t0 = std::chrono::steady_clock::now();
  core::detail::ConsolidationTable rebuilt;
  rebuilt.build(ps, ids, inc.table().events);
  core::ConsolidationChoice best_cold;
  const bool found_cold = rebuilt.query_best_into(ps, *model, load, best_cold);
  const double rebuild_ms = bench::ms_since(t0);

  report.row(util::strf("incremental.replan/%zu", n), replan_ms, "ms");
  report.row(util::strf("incremental.rebuild/%zu", n), rebuild_ms, "ms");
  const double speedup = replan_ms > 0.0 ? rebuild_ms / replan_ms : 0.0;
  const std::string name = util::strf("incremental.speedup/%zu", n);
  if (n >= 2000) {
    report.gate(name, speedup, ">=", 10.0);
  } else {
    report.row(name, speedup, "x");
  }

  // Bit-for-bit: both queries and both rankings agree, and query_best_into
  // is exactly the head of the masked ranking.
  std::vector<core::RankEntry> ranked;
  std::vector<core::RankEntry> ranked_cold;
  inc.rank_all_k_into(load, ranked);
  rebuilt.rank_all_k_into(ps, *model, load, ranked_cold);
  return found && found_cold && !ranked.empty() &&
         choices_identical(best, best_cold) &&
         choice_is_entry(best, ranked.front()) &&
         std::equal(ranked.begin(), ranked.end(), ranked_cold.begin(),
                    ranked_cold.end(), entries_identical);
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  bench::Report report("scale");
  util::CliFlags flags;
  flags.define("max-n", "largest fleet size in the sweep", "10000");
  if (const int rc = report.parse_flags(flags, argc, argv,
                                        "datacenter-scale planning performance");
      rc >= 0) {
    return rc;
  }
  const size_t max_n = static_cast<size_t>(flags.get_int("max-n", 10000));

  // n-sweep at 8 shards; the largest n also at 4 and 16 shards. Each n runs
  // once, also when --max-n is one of the fixed sizes.
  std::vector<size_t> sizes;
  for (const size_t n : {size_t{1000}, size_t{2000}, size_t{5000}}) {
    if (n < max_n) sizes.push_back(n);
  }
  sizes.push_back(max_n);
  size_t mismatches = 0;
  double fleet_speedup_at_max = 0.0;
  for (const size_t n : sizes) {
    const core::RoomModel room = bench::sku_model(n, 8, 42);
    const double load = kLoadFrac * room.total_capacity();
    const ColdSolve mono = run_monolithic(room, load);
    report.row(util::strf("monolithic.cold_solve/%zu", n), mono.ms, "ms");
    if (!incremental_rows(report, core::share_model(room), load)) ++mismatches;
    const std::vector<size_t> shard_counts =
        n == max_n ? std::vector<size_t>{8, 4, 16} : std::vector<size_t>{8};
    for (const size_t shards : shard_counts) {
      const ColdSolve fleet = run_fleet(room, shards, load);
      report.row(util::strf("fleet.cold_solve/%zu/%zu", n, shards), fleet.ms,
                 "ms");
      report.row(util::strf("fleet.power_ratio/%zu/%zu", n, shards),
                 mono.total_power_w > 0.0
                     ? fleet.total_power_w / mono.total_power_w
                     : 0.0,
                 "ratio");
      if (!fleet.identical) ++mismatches;
      if (n == max_n && fleet.ms > 0.0) {
        fleet_speedup_at_max = std::max(fleet_speedup_at_max, mono.ms / fleet.ms);
      }
    }
  }
  const WarmFleet warm = run_warm_fleet(bench::sku_model(max_n, 8, 42), 8);
  report.row(util::strf("fleet.warm_solve/%zu/8", max_n), warm.solve_us, "us");
  report.row(util::strf("fleet.warm_shard_solves/%zu/8", max_n),
             warm.shard_solves_us, "us");
  report.gate(util::strf("fleet.warm_overhead/%zu/8", max_n), warm.overhead,
              "<=", kWarmOverheadBound);
  report.gate(util::strf("fleet.best_speedup_vs_monolithic/%zu", max_n),
              fleet_speedup_at_max, ">", 1.0);
  report.gate("identity.mismatches", static_cast<double>(mismatches), "==",
              0.0);
  return report.finish();
}
