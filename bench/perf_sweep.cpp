// Measurement-stack performance: what EvalEngine's shared profile, memo
// cache and parallel sweep buy, as the paper's grid grows.
//
// Four timings per grid size, on the standard 20-machine testbed stand-in:
//
//   cold      construct-and-measure from scratch — profiling campaign plus
//             a serial sweep (the pre-engine call pattern);
//   warm      the same sweep again on the same engine: every point is a
//             memo-cache hit, nothing settles (target: >= 10x vs cold);
//   serial    a fresh engine with the profile pre-built, sweeping the grid
//             cold at 1 worker (isolates measurement from profiling);
//   parallel  ditto at 8 workers over pooled room replicas (target:
//             measurably faster than serial, bit-for-bit identical).
//
// The load axis is deliberately fractional: those points would have
// collided under the old integer-truncated SweepTable keying.
//
// Emits a machine-readable BENCH_sweep.json (override with --json-out) so
// the perf trajectory can be tracked across commits, and exits nonzero if
// a target is missed or any parallel result diverges from serial.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "control/eval_engine.h"
#include "obs/json_writer.h"
#include "util/cli.h"

using namespace coolopt;

namespace {

struct CaseResult {
  size_t points = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;

  double warm_speedup() const { return warm_ms > 0.0 ? cold_ms / warm_ms : 0.0; }
  double parallel_speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// `count` distinct fractional load percentages in (0, 100].
std::vector<double> fractional_load_axis(size_t count) {
  std::vector<double> loads(count);
  for (size_t i = 0; i < count; ++i) {
    loads[i] = 100.0 * static_cast<double>(i + 1) / static_cast<double>(count);
  }
  return loads;
}

bool points_identical(const std::vector<control::EvalPoint>& a,
                      const std::vector<control::EvalPoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const control::EvalPoint& x = a[i];
    const control::EvalPoint& y = b[i];
    if (x.feasible != y.feasible || x.load_pct != y.load_pct ||
        x.scenario.number != y.scenario.number) {
      return false;
    }
    if (!x.feasible) continue;
    if (x.measurement.total_power_w != y.measurement.total_power_w ||
        x.measurement.it_power_w != y.measurement.it_power_w ||
        x.measurement.crac_power_w != y.measurement.crac_power_w ||
        x.measurement.peak_cpu_temp_c != y.measurement.peak_cpu_temp_c ||
        x.measurement.t_ac_achieved_c != y.measurement.t_ac_achieved_c ||
        x.measurement.machines_on != y.measurement.machines_on ||
        x.plan.allocation.t_ac != y.plan.allocation.t_ac ||
        x.plan.allocation.loads != y.plan.allocation.loads ||
        x.plan.allocation.on != y.plan.allocation.on) {
      return false;
    }
  }
  return true;
}

CaseResult run_case(const std::vector<core::Scenario>& scenarios,
                    const std::vector<double>& loads) {
  const control::EvalOptions options = benchsup::standard_options();
  CaseResult r;
  r.points = scenarios.size() * loads.size();

  auto t0 = std::chrono::steady_clock::now();
  control::EvalEngine engine(options);
  const auto cold_rows = engine.sweep(scenarios, loads, 1);
  r.cold_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  const auto warm_rows = engine.sweep(scenarios, loads, 1);
  r.warm_ms = ms_since(t0);

  control::EvalEngine serial_engine(options);
  serial_engine.profile();  // pre-pay the campaign; time the sweep alone
  t0 = std::chrono::steady_clock::now();
  const auto serial_rows = serial_engine.sweep(scenarios, loads, 1);
  r.serial_ms = ms_since(t0);

  control::EvalEngine parallel_engine(options);
  parallel_engine.profile();
  t0 = std::chrono::steady_clock::now();
  const auto parallel_rows = parallel_engine.sweep(scenarios, loads, 8);
  r.parallel_ms = ms_since(t0);

  r.identical = points_identical(serial_rows, parallel_rows) &&
                points_identical(cold_rows, warm_rows) &&
                points_identical(cold_rows, serial_rows);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  util::CliFlags flags;
  flags.define("json-out", "machine-readable results path", "BENCH_sweep.json");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("EvalEngine sweep performance").c_str());
    return 0;
  }

  std::printf("EvalEngine sweep performance (20-machine room)\n\n");

  // n = 20: two scenarios across ten fractional loads. n = 200: the full
  // eight-scenario grid across twenty-five.
  const std::vector<core::Scenario> small_set = {core::Scenario::by_number(6),
                                                 core::Scenario::by_number(8)};
  std::vector<CaseResult> results;
  results.push_back(run_case(small_set, fractional_load_axis(10)));
  results.push_back(run_case(core::Scenario::all8(), fractional_load_axis(25)));

  util::TextTable table({"points", "cold (ms)", "warm (ms)", "warm x",
                         "serial (ms)", "parallel (ms)", "parallel x",
                         "identical"});
  bool pass = true;
  for (const CaseResult& r : results) {
    table.row({util::strf("%zu", r.points), util::strf("%.1f", r.cold_ms),
               util::strf("%.2f", r.warm_ms),
               util::strf("%.1f", r.warm_speedup()),
               util::strf("%.1f", r.serial_ms),
               util::strf("%.1f", r.parallel_ms),
               util::strf("%.2f", r.parallel_speedup()),
               r.identical ? "yes" : "NO"});
    if (r.warm_speedup() < 10.0 || !r.identical) pass = false;
  }
  // The parallel target applies at the larger grid (enough independent
  // work to amortize the pool) and only where the hardware can actually
  // run workers side by side — on a single-core host the sweep still must
  // be bit-for-bit identical, but it cannot be faster.
  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  if (cores > 1 && results.back().parallel_speedup() <= 1.0) pass = false;
  std::printf("%s\n", table.render().c_str());
  if (cores == 1) {
    std::printf("(single-core host: parallel-speedup target not applicable)\n");
  }

  const std::string json_path =
      flags.get_string("json-out", "BENCH_sweep.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 2;
  }
  std::string json;
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("bench", "sweep");
  w.kv("room_servers", static_cast<uint64_t>(20));
  w.kv("hardware_cores", static_cast<uint64_t>(cores));
  w.key("cases");
  w.begin_array();
  for (const CaseResult& r : results) {
    w.begin_object();
    w.kv("points", static_cast<uint64_t>(r.points));
    w.kv("cold_ms", r.cold_ms);
    w.kv("warm_ms", r.warm_ms);
    w.kv("serial_ms", r.serial_ms);
    w.kv("parallel_ms", r.parallel_ms);
    w.kv("warm_speedup", r.warm_speedup());
    w.kv("parallel_speedup", r.parallel_speedup());
    w.kv("identical", r.identical);
    w.end_object();
  }
  w.end_array();
  w.kv("pass", pass);
  w.end_object();
  out << json << "\n";
  std::printf("(JSON written to %s)\n", json_path.c_str());

  std::printf("Targets (warm >= 10x cold; parallel > 1x serial at the large "
              "grid on multi-core hosts; parallel bit-for-bit identical to "
              "serial): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
