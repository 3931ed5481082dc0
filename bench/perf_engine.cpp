// Engine performance, layer by layer, plus the paper's complexity claims.
//
// Rows (all median per-call times, bench::median_us):
//
//   closed_form.solve/n      Eq. 19/21/22 on a reused result slot, n 8..2048:
//                            "linear computational complexity (with respect
//                            to the number of servers)" (Section III-A);
//   bounded.solve/n          the closed form's fallback (BoundedOptimizer),
//                            n 8..2048, on rooms with w1 drawn per machine,
//                            which the closed form cannot serve: one
//                            O(n log n) sweep over T_ac;
//   max_safe_t_ac/n          the thermal-limit set point, n 8..2048;
//   alg1.cold_build/n        Algorithm 1 preprocessing, n 8..256;
//   alg2.query_paper/n       Algorithm 2's O(lg n) query (the test oracle's)
//                            against a prebuilt allStatus index
//                            (Section III-B);
//   alg2.query_exact/n       the exact per-k query (a k-scan stopped at an
//                            exact power floor);
//   alg2.rank_all_k_into/n   the full ranking as (k, segment, power)
//                            entries into a reused buffer, the engine's
//                            candidate-walk call shape;
//   brute_force/n            the naive O(n 2^n) enumeration the paper argues
//                            against, n 8..18;
//   alg1.max_load_for_budget/64   the inverse query maxL(A, P_b, k);
//   plan_engine.solve/20     scenario #8 on a long-lived 20-machine engine;
//   warm_path.*/n            scenario #8 over a 16-load operating cycle on an
//                            SKU room: a fresh engine's construct-and-solve
//                            (cold) against one long-lived engine replanning
//                            through a reused result slot (warm), and the
//                            same cycle under one-machine quarantine deltas
//                            (churn: restricted solves reading the one
//                            table through the survivors' mask);
//   obs.*.{detached,attached}  the closed form and a warm engine solve with
//                            no metrics registry attached and with one: the
//                            cost of the instrumentation hooks.
//
// Gates, at every warm-path n: the consolidation walk ends at the ranked
// head (engine.path.ranked_head) on at least one warm solve, and every warm
// or churned plan encodes byte-for-byte what a fresh engine answers (a warm
// engine may change how fast a plan is computed, never what it is).
//
// Writes BENCH_engine.json (bench/report.h); exits nonzero on a failed gate.

#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/bounded.h"
#include "core/closed_form.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "core/scratch.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "service/wire.h"
#include "tests/oracle/consolidation.h"
#include "util/rng.h"

using namespace coolopt;

namespace {

core::RoomModel synthetic_model(size_t machines, uint64_t seed) {
  core::SyntheticModelOptions options;
  options.machines = machines;
  options.seed = seed;
  return core::make_synthetic_model(options);
}

std::vector<size_t> all_indices(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

std::string at(const char* name, size_t n) {
  return util::strf("%s/%zu", name, n);
}

/// Section III-A: the closed form, the bounded fallback, the set-point bound
/// and one consolidated engine solve.
void optimizer_rows(bench::Report& report) {
  for (size_t n = 8; n <= 2048; n *= 4) {
    const core::RoomModel model = synthetic_model(n, 7);
    const core::AnalyticOptimizer opt(model);
    const std::vector<size_t> on = all_indices(n);
    const double load = model.total_capacity() * 0.6;
    core::ClosedFormResult result;
    report.row(at("closed_form.solve", n), bench::median_us([&] {
                 opt.solve_into(on.data(), on.size(), load, result);
                 bench::keep(result.allocation.total_power_w);
               }),
               "us");
    const std::vector<double> loads(n, 20.0);
    const std::vector<bool> on_mask(n, true);
    report.row(at("max_safe_t_ac", n), bench::median_us([&] {
                 bench::keep(core::max_safe_t_ac(model, loads, on_mask));
               }),
               "us");
  }
  for (size_t n = 8; n <= 2048; n *= 4) {
    core::RoomModel model = synthetic_model(n, 7);
    util::Rng rng(n);
    for (core::MachineModel& m : model.machines) {
      m.power.w1 = rng.uniform(1.0, 2.0);
    }
    const core::BoundedOptimizer opt(core::share_model(model));
    const std::vector<size_t> on = all_indices(n);
    const double load = model.total_capacity() * 0.6;
    core::BoundedWorkspace ws;
    core::Allocation alloc;
    report.row(at("bounded.solve", n), bench::median_us([&] {
                 opt.solve_into(on.data(), on.size(), load, ws, alloc);
                 bench::keep(alloc.total_power_w);
               }),
               "us");
  }
  const core::RoomModel model = synthetic_model(20, 7);
  const core::PlanEngine engine(model);
  const core::PlanRequest request(core::Scenario::by_number(8),
                                  model.total_capacity() * 0.45);
  report.row("plan_engine.solve/20", bench::median_us([&] {
               bench::keep(engine.solve(request).plan);
             }),
             "us");
}

/// Section III-B: Algorithm 1's build, Algorithm 2's queries and the
/// enumeration they replace.
void consolidation_rows(bench::Report& report) {
  for (size_t n = 8; n <= 256; n *= 2) {
    const core::SharedRoomModel model =
        core::share_model(synthetic_model(n, 11));
    report.row(at("alg1.cold_build", n), bench::median_us([&] {
                 core::IncrementalConsolidator consolidator(model);
                 bench::keep(consolidator.segment_count());
               }),
               "us");
    const core::IncrementalConsolidator consolidator(model);
    const auto& table = consolidator.table();
    const std::vector<core::PaperStatus> statuses =
        core::all_status(table, consolidator.particles());
    const double load = model->total_capacity() * 0.4;
    report.row(at("alg2.query_paper", n), bench::median_us([&] {
                 bench::keep(core::query_paper(table, consolidator.particles(),
                                               *model, statuses, load));
               }),
               "us");
    core::ConsolidationChoice choice;
    report.row(at("alg2.query_exact", n), bench::median_us([&] {
                 bench::keep(consolidator.query_best_into(load, choice));
               }),
               "us");
    std::vector<core::RankEntry> ranked;
    report.row(at("alg2.rank_all_k_into", n), bench::median_us([&] {
                 consolidator.rank_all_k_into(load, ranked);
                 bench::keep(ranked.size());
               }),
               "us");
  }
  for (size_t n = 8; n <= 18; n += 2) {
    const core::RoomModel model = synthetic_model(n, 11);
    const core::BruteForceConsolidator brute(model);
    const double load = model.total_capacity() * 0.4;
    report.row(at("brute_force", n), bench::median_us([&] {
                 bench::keep(brute.best(load));
               }),
               "us");
  }
  const core::IncrementalConsolidator consolidator(
      core::share_model(synthetic_model(64, 11)));
  report.row("alg1.max_load_for_budget/64", bench::median_us([&] {
               bench::keep(consolidator.max_load_for_budget(2000.0, 24));
             }),
             "us");
}

/// The repeating operating cycle: 16 loads between 15% and 35% of the
/// (headroom-inflated) capacity, a day of demand levels the planner keeps
/// revisiting.
std::vector<double> load_cycle(const core::RoomModel& model) {
  constexpr size_t kPoints = 16;
  std::vector<double> loads(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    loads[i] = model.total_capacity() *
               (0.15 + 0.20 * static_cast<double>(i) /
                           static_cast<double>(kPoints));
  }
  return loads;
}

/// Cold vs warm scenario-#8 solves over the load cycle, and the gates on
/// walks ending at the ranked head and on warm/fresh plan identity.
void warm_path_rows(bench::Report& report, size_t n, size_t rounds,
                    size_t cold_samples) {
  const core::SharedRoomModel shared =
      core::share_model(bench::sku_model(n, 8, 42));
  const std::vector<double> loads = load_cycle(*shared);

  // Warm arm: one lap to build the caches, then `rounds` timed laps through
  // one PlanResult slot (the zero-allocation call shape).
  const core::PlanEngine warm(shared);
  core::PlanRequest req(core::Scenario::by_number(8), 0.0);
  core::PlanResult slot;
  for (const double load : loads) {
    req.load = load;
    warm.solve_into(req, core::SolveScratch::local(), slot);
  }
  std::vector<double> samples;
  for (size_t lap = 0; lap < rounds; ++lap) {
    for (const double load : loads) {
      req.load = load;
      const auto t0 = std::chrono::steady_clock::now();
      warm.solve_into(req, core::SolveScratch::local(), slot);
      samples.push_back(bench::us_since(t0));
    }
  }
  const double warm_p50 = bench::median(samples);
  const uint64_t head_answers = warm.counters().memo_hits;

  // Cold arm, doubling as the identity check: at every load the warm engine
  // must encode exactly a fresh engine's first answer. The first
  // `cold_samples` loads each get their own timed engine; later loads ask
  // the last of them, which has still never seen that load.
  samples.clear();
  size_t mismatches = 0;
  std::unique_ptr<core::PlanEngine> cold;
  for (size_t i = 0; i < loads.size(); ++i) {
    req.load = loads[i];
    core::PlanResult fresh;
    if (i < cold_samples) {
      const auto t0 = std::chrono::steady_clock::now();
      cold = std::make_unique<core::PlanEngine>(shared);
      fresh = cold->solve(req);
      samples.push_back(bench::us_since(t0));
    } else {
      fresh = cold->solve(req);
    }
    warm.solve_into(req, core::SolveScratch::local(), slot);
    if (service::encode_plan_response(0, slot) !=
        service::encode_plan_response(0, fresh)) {
      ++mismatches;
    }
  }
  report.row(at("warm_path.cold_p50", n), bench::median(samples), "us");
  report.row(at("warm_path.warm_p50", n), warm_p50, "us");
  report.gate(at("warm_path.head_answers", n),
              static_cast<double>(head_answers), ">", 0.0);
  report.gate(at("warm_path.plan_mismatches", n),
              static_cast<double>(mismatches), "==", 0.0);
}

/// Restricted scenario-#8 solves under one-machine quarantine churn: a walk
/// that quarantines one more machine per request out to 8, then readmits
/// them one per request, at the operating cycle's loads, on one long-lived
/// engine through a reused result slot (the churn_p50 row). Each request
/// reads the engine's one Algorithm 1 table through a mask over its
/// survivors, rebound per request. The gate: every churned plan encodes
/// byte-for-byte what a fresh engine answers for the same request.
void churn_rows(bench::Report& report, size_t n, size_t rounds) {
  const core::SharedRoomModel shared =
      core::share_model(bench::sku_model(n, 8, 42));
  const std::vector<double> loads = load_cycle(*shared);
  std::vector<core::PlanRequest> requests;
  std::vector<size_t> quarantined;
  for (size_t j = 0; j < loads.size(); ++j) {
    if (j < loads.size() / 2) {
      quarantined.push_back((j * 7919 + 13) % n);
    } else {
      quarantined.pop_back();
    }
    requests.emplace_back(core::Scenario::by_number(8), loads[j], quarantined);
  }

  const core::PlanEngine warm(shared);
  core::PlanResult slot;
  for (const core::PlanRequest& r : requests) {
    warm.solve_into(r, core::SolveScratch::local(), slot);
  }
  std::vector<double> samples;
  for (size_t lap = 0; lap < rounds; ++lap) {
    for (const core::PlanRequest& r : requests) {
      const auto t0 = std::chrono::steady_clock::now();
      warm.solve_into(r, core::SolveScratch::local(), slot);
      samples.push_back(bench::us_since(t0));
    }
  }

  size_t mismatches = 0;
  for (const core::PlanRequest& r : requests) {
    warm.solve_into(r, core::SolveScratch::local(), slot);
    const core::PlanEngine fresh(shared);
    if (service::encode_plan_response(0, slot) !=
        service::encode_plan_response(0, fresh.solve(r))) {
      ++mismatches;
    }
  }
  report.row(at("warm_path.churn_p50", n), bench::median(samples), "us");
  report.gate(at("warm_path.churn_plan_mismatches", n),
              static_cast<double>(mismatches), "==", 0.0);
}

/// The instrumentation hooks' cost: the same calls with no registry
/// attached, then with one.
void observability_rows(bench::Report& report) {
  const core::RoomModel model = synthetic_model(2048, 7);
  const core::AnalyticOptimizer opt(model);
  const std::vector<size_t> on = all_indices(model.size());
  const double load = model.total_capacity() * 0.6;
  core::ClosedFormResult result;
  const auto closed_form = [&] {
    opt.solve_into(on.data(), on.size(), load, result);
    bench::keep(result.allocation.total_power_w);
  };

  const core::SharedRoomModel shared =
      core::share_model(bench::sku_model(200, 8, 42));
  const std::vector<double> loads = load_cycle(*shared);
  const core::PlanEngine engine(shared);
  core::PlanRequest req(core::Scenario::by_number(8), 0.0);
  core::PlanResult slot;
  const auto warm_lap = [&] {
    for (const double l : loads) {
      req.load = l;
      engine.solve_into(req, core::SolveScratch::local(), slot);
    }
  };
  warm_lap();  // build the caches
  const double per_lap = static_cast<double>(loads.size());

  obs::MetricsRegistry registry;
  for (obs::MetricsRegistry* sink : {static_cast<obs::MetricsRegistry*>(nullptr),
                                     &registry}) {
    const obs::ScopedObservation scope(sink);
    const char* suffix = sink == nullptr ? "detached" : "attached";
    report.row(util::strf("obs.closed_form.solve/2048.%s", suffix),
               bench::median_us(closed_form), "us");
    report.row(util::strf("obs.plan_engine.warm_solve/200.%s", suffix),
               bench::median_us(warm_lap) / per_lap, "us");
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  bench::Report report("engine");
  util::CliFlags flags;
  flags.define("rounds", "warm cycle laps per warm-path measurement", "32");
  if (const int rc = report.parse_flags(
          flags, argc, argv, "engine performance, layer by layer");
      rc >= 0) {
    return rc;
  }
  const size_t rounds = static_cast<size_t>(flags.get_int("rounds", 32));

  optimizer_rows(report);
  consolidation_rows(report);
  warm_path_rows(report, 200, rounds, 16);
  // The big room gets fewer laps and cold samples (its preprocessing takes
  // seconds): it exists to show the asymptotics, not to soak.
  warm_path_rows(report, 10000, std::max<size_t>(2, rounds / 8), 3);
  churn_rows(report, 200, rounds);
  churn_rows(report, 10000, std::max<size_t>(2, rounds / 8));
  observability_rows(report);
  return report.finish();
}
