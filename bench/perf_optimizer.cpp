// Algorithm performance: the closed form (Section III-A) is O(n) per solve
// — "it takes linear computational complexity (with respect to the number
// of servers) to derive workload assignment and AC set point" — and the
// bounded LP fallback is polynomial but far heavier; this suite quantifies
// both, plus the end-to-end scenario planner.

#include <benchmark/benchmark.h>

#include "core/closed_form.h"
#include "core/lp_optimizer.h"
#include "core/engine.h"
#include "core/synthetic.h"
#include "obs/session.h"

using namespace coolopt;

namespace {

core::RoomModel model_of_size(size_t n) {
  core::SyntheticModelOptions options;
  options.machines = n;
  options.seed = 7;
  return core::make_synthetic_model(options);
}

std::vector<size_t> all_indices(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

void BM_ClosedFormSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::RoomModel model = model_of_size(n);
  const core::AnalyticOptimizer opt(model);
  const auto on = all_indices(n);
  const double load = model.total_capacity() * 0.6;
  // One result slot reused across iterations (the warm scratch call shape):
  // the timing measures the Eq. 19/21/22 arithmetic, not the allocator.
  core::ClosedFormResult result;
  for (auto _ : state) {
    opt.solve_into(on.data(), on.size(), load, result);
    benchmark::DoNotOptimize(result.allocation.total_power_w);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ClosedFormSolve)->RangeMultiplier(4)->Range(8, 2048)->Complexity(benchmark::oN);

void BM_LpOptimizerSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::RoomModel model = model_of_size(n);
  const core::LpOptimizer opt(model);
  const auto on = all_indices(n);
  const double load = model.total_capacity() * 0.6;
  // Reused tableau workspace + result slot: simplex pivots only.
  core::LpWorkspace ws;
  core::Allocation alloc;
  for (auto _ : state) {
    opt.solve_into(on.data(), on.size(), load, ws, alloc);
    benchmark::DoNotOptimize(alloc.total_power_w);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_LpOptimizerSolve)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_PlanEngineSolve(benchmark::State& state) {
  const core::RoomModel model = model_of_size(20);
  const core::PlanEngine engine(model);
  const core::PlanRequest request(core::Scenario::by_number(8),
                                  model.total_capacity() * 0.45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.solve(request).plan);
  }
}
BENCHMARK(BM_PlanEngineSolve);

void BM_MaxSafeTac(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::RoomModel model = model_of_size(n);
  std::vector<double> loads(n, 20.0);
  std::vector<bool> on(n, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::max_safe_t_ac(model, loads, on));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MaxSafeTac)->RangeMultiplier(4)->Range(8, 2048)->Complexity(benchmark::oN);

}  // namespace

// Like BENCHMARK_MAIN(), but peels off --metrics-out/--trace-out first so
// the perf suites can export telemetry (benchmark::Initialize rejects flags
// it does not know about).
int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
