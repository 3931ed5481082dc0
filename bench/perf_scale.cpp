// Datacenter-scale planning performance: what the sharded FleetEngine and
// the incremental Algorithm 1 table buy as the fleet grows to 10k+
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
// Plus the incremental-vs-rebuild comparison: with a warm table, quarantine
// ONE machine and replan (set_active + query_best_into) against a cold
// build answering the same query at the same active set (a consolidator
// moved there from the empty set, which set_active cold-builds, so the
// reference shares no state with the delta path).
//
// Gates (exit nonzero when missed):
//   * fleet cold solve at the largest n beats the monolithic cold solve at
//     one of the swept shard counts;
//   * incremental replan >= 10x the cold rebuild at every n >= 2000;
//   * every fleet shard entry is bit-for-bit the shard engine's own
//     answer, and the incremental table/ranking is bit-for-bit the cold
//     rebuild's, at every n.
//
// Writes BENCH_scale.json (bench/report.h).

#include <algorithm>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "fleet/fleet_engine.h"
#include "obs/session.h"

using namespace coolopt;

namespace {

/// Operating point: 20% of the (headroom-inflated) nameplate capacity,
/// i.e. 60% of the nominal synthetic capacity — the paper's mid-load
/// regime, far from both the thermal ceiling and the per-machine caps.
constexpr double kLoadFrac = 0.2;

/// Prefix sums are read through the folding accessor, so a table with
/// stale tails compares by the values its queries would read.
bool tables_identical(const core::ParticleSystem& ps,
                      const core::detail::ConsolidationTable& a,
                      const core::detail::ConsolidationTable& b) {
  if (a.events != b.events || a.segments.size() != b.segments.size()) {
    return false;
  }
  for (size_t s = 0; s < a.segments.size(); ++s) {
    if (a.segments[s].start != b.segments[s].start ||
        a.segments[s].order != b.segments[s].order) {
      return false;
    }
    for (size_t k = 0; k <= a.width(); ++k) {
      const core::detail::ConsolidationTable::Prefix pa = a.prefix(ps, s, k);
      const core::detail::ConsolidationTable::Prefix pb = b.prefix(ps, s, k);
      if (pa.a != pb.a || pa.b != pb.b) return false;
    }
  }
  return true;
}

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

/// Warm table + one-machine quarantine replan (delta patch +
/// query_best_into) vs a from-scratch build answering the same query. Adds
/// the timing rows (a gate at n >= 2000); returns whether the patched
/// answer is bit-for-bit the rebuilt one.
bool incremental_rows(bench::Report& report,
                      const core::SharedRoomModel& model, double load) {
  const size_t n = model->size();
  core::IncrementalConsolidator inc(model, core::kPreValidated);
  std::vector<char> mask(n, 1);
  inc.set_active(mask);  // warm (cold build, untimed)

  mask[n / 2] = 0;  // one machine quarantined
  auto t0 = std::chrono::steady_clock::now();
  inc.set_active(mask);
  core::ConsolidationChoice best;
  const bool found = inc.query_best_into(load, best);
  const double replan_ms = bench::ms_since(t0);

  // The reference never takes the delta path: from the empty set, moving
  // to the mask spans the whole fleet, so set_active cold-builds there.
  core::IncrementalConsolidator rebuilt(model, core::kPreValidated);
  rebuilt.set_active(std::vector<char>(n, 0));
  t0 = std::chrono::steady_clock::now();
  const bool cold = rebuilt.set_active(mask).cold_rebuild;
  core::ConsolidationChoice best_cold;
  const bool found_cold = rebuilt.query_best_into(load, best_cold);
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

  // Bit-for-bit: the patched table equals the rebuilt one, both queries
  // agree, and query_best_into is exactly the head of the full ranking.
  std::vector<core::RankEntry> ranked;
  inc.rank_all_k_into(load, ranked);
  return cold &&
         tables_identical(inc.particles(), inc.table(), rebuilt.table()) &&
         found && found_cold && !ranked.empty() &&
         choices_identical(best, best_cold) &&
         choice_is_entry(best, ranked.front());
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
  report.gate(util::strf("fleet.best_speedup_vs_monolithic/%zu", max_n),
              fleet_speedup_at_max, ">", 1.0);
  report.gate("identity.mismatches", static_cast<double>(mismatches), "==",
              0.0);
  return report.finish();
}
