// PlanEngine hot-path performance: what the cached artifacts, the
// zero-allocation solve path and the verified ranked-head check buy on the
// warm replan loop.
//
// Two timings per fleet size, both on scenario #8 (the paper's holistic
// Optimal + AC + consolidation arm) over a 16-load operating cycle:
//
//   cold      construct-and-solve: the pre-engine call pattern, full model
//             validation + Algorithm 1 preprocessing (one fresh engine per
//             sample, first solve only);
//   warm      one long-lived engine replanning the cycle through a reused
//             result slot. The ranked-head check answers a solve whenever
//             the ranking's head provably wins, and the consolidation walk
//             runs otherwise.
//
// Targets (exit nonzero when missed):
//   * the ranked-head check engages (its counter advances) at every n;
//   * warm plans are byte-for-byte a fresh engine's at every cycle load
//     (encode_plan_response bytes) — a warm engine may change how fast a
//     plan is computed, never what it is.
//
// Emits BENCH_engine.json (override with --json-out); tools/check_bench.sh
// validates the shape of every BENCH_*.json in CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scratch.h"
#include "core/synthetic.h"
#include "obs/json_writer.h"
#include "obs/session.h"
#include "service/wire.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

namespace {

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double p50(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// SKU-structured fleet (8 machine classes replicated across n slots) with
/// 3x capacity headroom, as in perf_scale: per-machine caps stay slack at
/// the cycle's operating points, so solves stay on the closed form and the
/// timing isolates the Algorithm 1 query, not LP fallbacks.
core::RoomModel sku_model(size_t machines, uint64_t seed) {
  constexpr size_t kSkus = 8;
  core::SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  core::RoomModel model = core::make_synthetic_model(opt);
  for (size_t i = kSkus; i < model.size(); ++i) {
    model.machines[i] = model.machines[i % kSkus];
  }
  for (core::MachineModel& m : model.machines) m.capacity *= 3.0;
  return model;
}

/// The repeating operating cycle: 16 loads between 15% and 35% of (the
/// headroom-inflated) capacity — a day of demand levels the planner keeps
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

struct CaseResult {
  size_t n = 0;
  double cold_p50_us = 0.0;  ///< fresh engine: construct + one solve
  double warm_p50_us = 0.0;  ///< long-lived engine, reused result slot
  uint64_t head_answers = 0;  ///< warm solves the ranked-head check answered
  bool identical = false;
};

CaseResult run_case(size_t n, size_t rounds, size_t cold_samples) {
  CaseResult r;
  r.n = n;
  const core::SharedRoomModel shared = core::share_model(sku_model(n, 42));
  const std::vector<double> loads = load_cycle(*shared);
  const core::Scenario holistic = core::Scenario::by_number(8);

  // Warm arm: one lap to build the caches, then `rounds` timed laps through
  // one PlanResult slot (the zero-allocation call shape).
  const core::PlanEngine warm(shared);
  core::PlanRequest req(holistic, 0.0);
  core::PlanResult slot;
  for (const double load : loads) {
    req.load = load;
    warm.solve_into(req, core::SolveScratch::local(), slot);
  }
  std::vector<double> samples;
  samples.reserve(rounds * loads.size());
  for (size_t lap = 0; lap < rounds; ++lap) {
    for (const double load : loads) {
      req.load = load;
      const auto t0 = std::chrono::steady_clock::now();
      warm.solve_into(req, core::SolveScratch::local(), slot);
      samples.push_back(us_since(t0));
    }
  }
  r.warm_p50_us = p50(samples);
  r.head_answers = warm.counters().memo_hits;

  // Cold arm, doubling as the identity check: at every load the warm engine
  // must encode exactly a fresh engine's first answer. The first
  // `cold_samples` loads each get their own timed engine; later loads ask
  // the last of them, which has still never seen that load.
  samples.clear();
  r.identical = true;
  std::unique_ptr<core::PlanEngine> cold;
  for (size_t i = 0; i < loads.size(); ++i) {
    req.load = loads[i];
    core::PlanResult fresh;
    if (i < cold_samples) {
      const auto t0 = std::chrono::steady_clock::now();
      cold = std::make_unique<core::PlanEngine>(shared);
      fresh = cold->solve(req);
      samples.push_back(us_since(t0));
    } else {
      fresh = cold->solve(req);
    }
    warm.solve_into(req, core::SolveScratch::local(), slot);
    if (service::encode_plan_response(0, slot) !=
        service::encode_plan_response(0, fresh)) {
      r.identical = false;
    }
  }
  r.cold_p50_us = p50(samples);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  util::CliFlags flags;
  flags.define("json-out", "machine-readable results path",
               "BENCH_engine.json");
  flags.define("rounds", "warm cycle laps per measurement", "32");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s",
                flags.usage("PlanEngine warm solve-path performance").c_str());
    return 0;
  }
  const size_t rounds = static_cast<size_t>(flags.get_int("rounds", 32));

  std::printf("PlanEngine hot path: scratch arena + ranked-head check\n\n");

  std::vector<CaseResult> results;
  results.push_back(run_case(200, rounds, 16));
  // The big room gets fewer laps and cold samples (its preprocessing takes
  // seconds): it exists to show the asymptotics, not to soak.
  results.push_back(run_case(10000, std::max<size_t>(2, rounds / 8), 3));

  util::TextTable table({"n", "cold p50 (us)", "warm p50 (us)",
                         "head answers", "identical"});
  bool pass = true;
  for (const CaseResult& r : results) {
    table.row({util::strf("%zu", r.n), util::strf("%.0f", r.cold_p50_us),
               util::strf("%.1f", r.warm_p50_us),
               util::strf("%llu",
                          static_cast<unsigned long long>(r.head_answers)),
               r.identical ? "yes" : "NO"});
    if (!r.identical || r.head_answers == 0) pass = false;
  }
  std::printf("%s\n", table.render().c_str());

  const std::string json_path =
      flags.get_string("json-out", "BENCH_engine.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 2;
  }
  std::string json;
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("bench", "engine");
  w.kv("rounds", static_cast<uint64_t>(rounds));
  w.key("cases");
  w.begin_array();
  for (const CaseResult& r : results) {
    w.begin_object();
    w.kv("n", static_cast<uint64_t>(r.n));
    w.kv("cold_p50_us", r.cold_p50_us);
    w.kv("warm_p50_us", r.warm_p50_us);
    w.kv("head_answers", r.head_answers);
    w.kv("identical", r.identical);
    w.end_object();
  }
  w.end_array();
  w.kv("pass", pass);
  w.end_object();
  out << json << "\n";
  std::printf("(JSON written to %s)\n", json_path.c_str());

  std::printf(
      "Targets (the ranked-head check engages and warm plans stay "
      "byte-for-byte a fresh engine's at every n): %s\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
