// Datacenter-scale planning performance: what the sharded FleetEngine and
// the on-demand Algorithm 2 select buy as the fleet grows to 10k+
// machines, on SKU-structured rooms (a handful of machine classes
// replicated across slots — the regime real fleets live in).
//
// Two timings per case, both COLD (construction included):
//
//   monolithic   one PlanEngine over all n machines: the particle classes
//                + one consolidated solve;
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
// Plus the replan-vs-rebuild comparison: with a warm consolidator,
// quarantine ONE machine and replan (set_active + the masked
// query_best_into) against the test oracle's Algorithm 1 table rebuilt
// over the survivors answering the same query.
//
// Plus the first scenario-8 solve (PlanEngine construction included) on
// uniform rooms of DISTINCT particles, n = 500, 1000, 2000, each in a
// forked child: its milliseconds and the child's peak RSS. Algorithm 1's
// table holds O(n^3) entries on such rooms (about 9 GiB at n = 1000); the
// on-demand select holds O(n).
//
// Gates (exit nonzero when missed):
//   * fleet cold solve at the largest n beats the monolithic cold solve at
//     one of the swept shard counts;
//   * masked replan >= 10x the oracle rebuild at every n >= 2000;
//   * the warm fleet solve costs at most kWarmOverheadBound times its
//     serial shard solves;
//   * the first solve on the distinct n = 2000 room peaks under 100 MiB;
//   * identity.mismatches == 0: every fleet shard entry is bit-for-bit the
//     shard engine's own answer; at every n the masked choice and ranking
//     are bit-for-bit those of a consolidator built over the survivors
//     alone (indices mapped back), and agree with the oracle table rebuilt
//     over the survivors in k, subset and listing order, powers within
//     1e-12 relative.
//
// Writes BENCH_scale.json (bench/report.h).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/cpu_pin.h"
#include "bench/report.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "core/scratch.h"
#include "core/synthetic.h"
#include "fleet/fleet_engine.h"
#include "obs/session.h"
#include "tests/oracle/consolidation.h"

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

/// The peak RSS a distinct-room row reports when its child failed: far
/// above any bound, so the gate fails.
constexpr double kFailedChild = 1e12;

/// Relative distance of `got` from `want` (0 when both are 0).
double relative_gap(double got, double want) {
  const double scale = std::max(std::abs(got), std::abs(want));
  return scale == 0.0 ? 0.0 : std::abs(got - want) / scale;
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

/// Warm consolidator + one-machine quarantine replan (set_active + the
/// masked query_best_into) vs the oracle's Algorithm 1 table rebuilt over
/// the survivors answering the same query. Adds the timing rows (a gate at
/// n >= 2000); returns how many comparisons differ: bits against a
/// consolidator over the survivors alone, and k, subset, listing order or
/// power (beyond 1e-12 relative) against the rebuilt table.
size_t incremental_rows(bench::Report& report,
                        const core::SharedRoomModel& model, double load) {
  const size_t n = model->size();
  core::IncrementalConsolidator inc(model, core::kPreValidated);
  const core::ParticleSystem& ps = inc.particles();
  std::vector<char> mask(n, 1);
  core::ConsolidationChoice best;
  inc.set_active(mask);  // warm: sizes the view (untimed)
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
  const core::ConsolidationTable rebuilt = core::class_pair_table(ps, ids);
  core::ConsolidationChoice best_table;
  const bool found_table = rebuilt.query_best_into(ps, *model, load, best_table);
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

  // The same queries on a consolidator over the survivors alone: every bit,
  // with indices mapped back.
  core::RoomModel survivors = *model;
  survivors.machines.clear();
  for (const uint32_t i : ids) survivors.machines.push_back(model->machines[i]);
  const core::IncrementalConsolidator own(core::share_model(survivors));
  core::ConsolidationChoice best_own;
  const bool found_own = own.query_best_into(load, best_own);
  for (size_t& i : best_own.on_set) i = ids[i];
  size_t mismatches = 0;
  if (!found || !found_own || !found_table) return 1;
  if (best.k != best_own.k || best.on_set != best_own.on_set ||
      best.t_ac != best_own.t_ac ||
      best.predicted_total_power_w != best_own.predicted_total_power_w) {
    ++mismatches;
  }
  std::vector<core::RankEntry> ranked;
  std::vector<core::RankEntry> ranked_own;
  inc.rank_all_k_into(load, ranked);
  own.rank_all_k_into(load, ranked_own);
  if (ranked.empty() || ranked.front().k != best.k ||
      ranked.front().predicted_total_power_w != best.predicted_total_power_w ||
      !std::equal(ranked.begin(), ranked.end(), ranked_own.begin(),
                  ranked_own.end(),
                  [](const core::RankEntry& x, const core::RankEntry& y) {
                    return x.k == y.k && x.t == y.t &&
                           x.predicted_total_power_w ==
                               y.predicted_total_power_w;
                  })) {
    ++mismatches;
  }

  // Against the oracle: the head's k and subset in the same order, and per
  // k the same subset and a power within 1e-12 relative.
  if (best.k != best_table.k || best.on_set != best_table.on_set ||
      relative_gap(best.predicted_total_power_w,
                   best_table.predicted_total_power_w) > 1e-12) {
    ++mismatches;
  }
  std::vector<core::RankEntry> ranked_table;
  rebuilt.rank_all_k_into(ps, *model, load, ranked_table);
  const auto by_k = [](const core::RankEntry& x, const core::RankEntry& y) {
    return x.k < y.k;
  };
  std::sort(ranked.begin(), ranked.end(), by_k);
  std::sort(ranked_table.begin(), ranked_table.end(), by_k);
  if (ranked.size() != ranked_table.size()) return mismatches + 1;
  core::IncrementalConsolidator::View view;
  view.reset(inc.table(), mask);
  std::vector<size_t> subset;
  std::vector<size_t> subset_table;
  for (size_t i = 0; i < ranked.size(); ++i) {
    inc.table().top_k_into(ranked[i].t, ranked[i].k, subset, &view);
    rebuilt.top_k_into(ranked_table[i].t, ranked_table[i].k, subset_table);
    if (ranked[i].k != ranked_table[i].k || subset != subset_table ||
        relative_gap(ranked[i].predicted_total_power_w,
                     ranked_table[i].predicted_total_power_w) > 1e-12) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// The first scenario-8 solve, PlanEngine construction included, on a
/// uniform room of n distinct particles at 20% of its capacity, run in a
/// forked child. Adds the child's milliseconds and its peak RSS, from
/// getrusage(RUSAGE_CHILDREN) once it is reaped. That reports the largest
/// child reaped so far, so callers run the rooms in ascending n, first
/// thing in the process (a child starts with its parent's resident pages).
/// Returns the peak RSS in MiB, or kFailedChild when the child failed.
double distinct_first_solve_rows(bench::Report& report, size_t n) {
  core::SyntheticModelOptions options;
  options.machines = n;
  options.seed = 11;
  const core::RoomModel room = core::make_synthetic_model(options);
  const double load = kLoadFrac * room.total_capacity();
  int fds[2];
  if (pipe(fds) != 0) return kFailedChild;
  const pid_t pid = fork();
  if (pid < 0) return kFailedChild;
  if (pid == 0) {
    close(fds[0]);
    const auto t0 = std::chrono::steady_clock::now();
    const core::PlanEngine engine(room);
    const core::PlanResult result =
        engine.solve(core::PlanRequest(core::Scenario::by_number(8), load));
    const double ms = bench::ms_since(t0);
    const bool ok = result.plan.has_value() &&
                    write(fds[1], &ms, sizeof ms) ==
                        static_cast<ssize_t>(sizeof ms);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double ms = 0.0;
  const bool read_ok =
      read(fds[0], &ms, sizeof ms) == static_cast<ssize_t>(sizeof ms);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return kFailedChild;
  }
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const double rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  report.row(util::strf("distinct.first_solve/%zu", n), ms, "ms");
  report.row(util::strf("distinct.peak_rss/%zu", n), rss_mib, "MiB");
  return rss_mib;
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

  // First, while this process is small: each child starts with its pages.
  double distinct_rss_mib = kFailedChild;
  for (const size_t n : {size_t{500}, size_t{1000}, size_t{2000}}) {
    distinct_rss_mib = distinct_first_solve_rows(report, n);
  }
  report.gate("distinct.peak_rss_mib/2000", distinct_rss_mib, "<", 100.0);

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
    mismatches += incremental_rows(report, core::share_model(room), load);
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
