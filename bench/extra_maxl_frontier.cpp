// Extra: the maxL(A, P_b, k) capacity frontier of Section III-B.
//
// The paper's consolidation proof runs through an auxiliary question —
// "with a given power budget P_b and exactly k servers, what is the
// maximum load the cluster can serve?" — which is also the capacity-
// planning question of the related work it cites (Gandhi et al., power
// budgeting). This bench prints the frontier: servable load vs electric
// budget for several fleet sizes, and checks its structural properties
// (monotone in budget, monotone in k until the idle cost dominates).

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/incremental.h"

using namespace coolopt;

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("maxL frontier: servable load (files/s) vs power budget, "
              "exactly-k machines\n\n");

  control::EvalEngine eval(benchsup::standard_options());
  const core::IncrementalConsolidator consolidator(
      core::share_model(eval.model()));

  const std::vector<double> budgets = {400, 700, 1000, 1400, 1900, 2500};
  const std::vector<size_t> ks = {4, 8, 12, 16, 20};

  std::vector<std::string> columns{"budget (W)"};
  for (const size_t k : ks) columns.push_back(util::strf("k=%zu", k));
  util::TextTable out(columns);

  bool monotone_budget = true;
  std::vector<double> prev_row(ks.size(), -1.0);
  for (const double budget : budgets) {
    std::vector<std::string> row{util::strf("%.0f", budget)};
    for (size_t j = 0; j < ks.size(); ++j) {
      const double l_max = consolidator.max_load_for_budget(budget, ks[j]);
      if (l_max < prev_row[j] - 1e-6) monotone_budget = false;
      prev_row[j] = l_max;
      row.push_back(l_max > 0.0 ? util::strf("%.0f", l_max) : std::string("-"));
    }
    out.row(std::move(row));
  }
  std::printf("%s\n", out.render().c_str());

  // Spot checks: at a generous budget more machines serve more; at a tight
  // budget a small fleet beats a big one (idle power eats the budget).
  const double big_budget = 2500.0;
  const double small_k = consolidator.max_load_for_budget(big_budget, 4);
  const double large_k = consolidator.max_load_for_budget(big_budget, 20);
  const double tight_budget = 400.0;
  const double tight_small = consolidator.max_load_for_budget(tight_budget, 4);
  const double tight_large = consolidator.max_load_for_budget(tight_budget, 20);

  std::printf("At %.0f W: k=4 serves %.0f, k=20 serves %.0f (capacity wins).\n",
              big_budget, small_k, large_k);
  std::printf("At %.0f W: k=4 serves %.0f, k=20 serves %.0f (idle draw "
              "eats the tight budget).\n",
              tight_budget, tight_small, tight_large);

  const bool pass = monotone_budget && large_k > small_k && tight_small > tight_large;
  std::printf("\nShape check (monotone in budget; k-tradeoff flips between "
              "tight and generous budgets): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
