// Algorithm performance for Section III-B: Algorithm 1's cold build,
// Algorithm 2's O(lg n) online query (against a prebuilt allStatus index)
// vs the exact per-k query (a k-scan stopped at an exact power floor:
// O(n) comparisons, O(lg #segments) searches only for the k that can win)
// vs the naive O(n 2^n) enumeration the paper argues against.

#include <benchmark/benchmark.h>

#include "core/consolidation.h"
#include "core/incremental.h"
#include "core/synthetic.h"
#include "obs/session.h"

using namespace coolopt;

namespace {

core::SharedRoomModel model_of_size(size_t n) {
  core::SyntheticModelOptions options;
  options.machines = n;
  options.seed = 11;
  return core::share_model(core::make_synthetic_model(options));
}

void BM_Algorithm1Preprocess(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::SharedRoomModel model = model_of_size(n);
  for (auto _ : state) {
    core::IncrementalConsolidator consolidator(model);
    benchmark::DoNotOptimize(consolidator.segment_count());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Algorithm1Preprocess)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_Algorithm2QueryPaper(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::SharedRoomModel model = model_of_size(n);
  const core::IncrementalConsolidator consolidator(model);
  const auto& table = consolidator.table();
  const std::vector<core::detail::ConsolidationTable::Status> statuses =
      table.all_status();
  const double load = model->total_capacity() * 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.query_paper(
        consolidator.particles(), *model, statuses, load));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Algorithm2QueryPaper)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_QueryExactPerK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::SharedRoomModel model = model_of_size(n);
  const core::IncrementalConsolidator consolidator(model);
  const double load = model->total_capacity() * 0.4;
  core::ConsolidationChoice choice;
  for (auto _ : state) {
    benchmark::DoNotOptimize(consolidator.query_best_into(load, choice));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_QueryExactPerK)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_BruteForceNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::SharedRoomModel model = model_of_size(n);
  const core::BruteForceConsolidator brute(*model);
  const double load = model->total_capacity() * 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(brute.best(load));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_BruteForceNaive)->DenseRange(8, 18, 2)->Complexity();

void BM_RankAllKInto(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const core::SharedRoomModel model = model_of_size(n);
  const core::IncrementalConsolidator consolidator(model);
  const double load = model->total_capacity() * 0.4;
  // Grow-only ranking buffer reused across iterations — the engine's warm
  // candidate-walk call shape.
  std::vector<core::ConsolidationChoice> ranked;
  for (auto _ : state) {
    benchmark::DoNotOptimize(consolidator.rank_all_k_into(load, ranked));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_RankAllKInto)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_MaxLoadForBudget(benchmark::State& state) {
  const core::IncrementalConsolidator consolidator(model_of_size(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(consolidator.max_load_for_budget(2000.0, 24));
  }
}
BENCHMARK(BM_MaxLoadForBudget);

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
