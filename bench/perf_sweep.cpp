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
// Writes BENCH_sweep.json (bench/report.h) and exits nonzero if a target
// is missed or any parallel result diverges from serial.

#include <thread>
#include <vector>

#include "bench/common.h"
#include "bench/report.h"
#include "control/eval_engine.h"

using namespace coolopt;

namespace {

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

/// Times the four arms over one grid; adds their rows and the warm-speedup
/// gate, and returns the parallel speedup. `identical` is cleared when any
/// arm's points differ from the cold sweep's.
double run_case(bench::Report& report,
                const std::vector<core::Scenario>& scenarios,
                const std::vector<double>& loads, bool& identical) {
  const control::EvalOptions options = benchsup::standard_options();
  const size_t points = scenarios.size() * loads.size();
  const auto name = [&](const char* arm) {
    return util::strf("sweep.%s/%zu", arm, points);
  };

  auto t0 = std::chrono::steady_clock::now();
  control::EvalEngine engine(options);
  const auto cold_rows = engine.sweep(scenarios, loads, 1);
  const double cold_ms = bench::ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  const auto warm_rows = engine.sweep(scenarios, loads, 1);
  const double warm_ms = bench::ms_since(t0);

  control::EvalEngine serial_engine(options);
  serial_engine.profile();  // pre-pay the campaign; time the sweep alone
  t0 = std::chrono::steady_clock::now();
  const auto serial_rows = serial_engine.sweep(scenarios, loads, 1);
  const double serial_ms = bench::ms_since(t0);

  control::EvalEngine parallel_engine(options);
  parallel_engine.profile();
  t0 = std::chrono::steady_clock::now();
  const auto parallel_rows = parallel_engine.sweep(scenarios, loads, 8);
  const double parallel_ms = bench::ms_since(t0);

  identical = identical && points_identical(serial_rows, parallel_rows) &&
              points_identical(cold_rows, warm_rows) &&
              points_identical(cold_rows, serial_rows);
  report.row(name("cold"), cold_ms, "ms");
  report.row(name("warm"), warm_ms, "ms");
  report.row(name("serial"), serial_ms, "ms");
  report.row(name("parallel"), parallel_ms, "ms");
  report.gate(name("warm_speedup"), warm_ms > 0.0 ? cold_ms / warm_ms : 0.0,
              ">=", 10.0);
  return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  bench::Report report("sweep");
  util::CliFlags flags;
  if (const int rc = report.parse_flags(flags, argc, argv,
                                        "EvalEngine sweep performance");
      rc >= 0) {
    return rc;
  }

  // 20 points: two scenarios across ten fractional loads. 200 points: the
  // full eight-scenario grid across twenty-five.
  const std::vector<core::Scenario> small_set = {core::Scenario::by_number(6),
                                                 core::Scenario::by_number(8)};
  bool identical = true;
  run_case(report, small_set, fractional_load_axis(10), identical);
  const double parallel_speedup = run_case(
      report, core::Scenario::all8(), fractional_load_axis(25), identical);
  // The parallel target applies at the larger grid (enough independent
  // work to amortize the pool) and only where the hardware can actually
  // run workers side by side — on a single-core host the sweep still must
  // be bit-for-bit identical, but it cannot be faster.
  if (std::thread::hardware_concurrency() > 1) {
    report.gate("sweep.parallel_speedup/200", parallel_speedup, ">", 1.0);
  } else {
    report.row("sweep.parallel_speedup/200", parallel_speedup, "x");
  }
  report.gate("sweep.identical", identical ? 1.0 : 0.0, "==", 1.0);
  return report.finish();
}
