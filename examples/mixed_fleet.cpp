// Scenario example: a fleet-refresh decision on a heterogeneous room.
//
// The room mixes old power-hungry nodes with new efficient ones — the
// situation every operator faces mid-refresh, and one the paper's
// homogeneous closed form cannot handle (the library routes it through the
// bounded solver automatically). The example answers the operator's questions:
// which machines does the optimizer run at each load, how much energy do
// the old nodes cost, and what would retiring them change?
//
// Run: ./mixed_fleet [--old 10] [--new 10] [--seed 7]

#include <cstdio>

#include "control/eval_engine.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

namespace {

sim::RoomConfig mixed_room(size_t old_count, size_t new_count, uint64_t seed) {
  sim::RoomConfig cfg;
  cfg.seed = seed;

  sim::ServerConfig old_node;
  old_node.idle_power_w = 58.0;
  old_node.peak_delta_w = 85.0;
  old_node.capacity_files_s = 34.0;

  sim::ServerConfig new_node;
  new_node.idle_power_w = 28.0;
  new_node.peak_delta_w = 48.0;
  new_node.capacity_files_s = 46.0;

  cfg.fleet = {{old_node, old_count}, {new_node, new_count}};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.define("old", "count of old (hungry) nodes", "10");
  flags.define("new", "count of new (efficient) nodes", "10");
  flags.define("seed", "simulation seed", "7");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("coolopt mixed-fleet planning").c_str());
    return 0;
  }
  const size_t n_old = static_cast<size_t>(flags.get_int("old", 10));
  const size_t n_new = static_cast<size_t>(flags.get_int("new", 10));
  const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 7));

  control::EvalOptions options;
  options.room = mixed_room(n_old, n_new, seed);
  options.profiling.heterogeneous_power = true;
  std::printf("Profiling a mixed fleet (%zu old + %zu new nodes)...\n\n", n_old,
              n_new);
  control::EvalEngine eval(options);
  std::printf("Planner path: %s (heterogeneous fleets bypass the closed form)\n\n",
              eval.plan_engine()->exact_paths() ? "closed form"
                                                : "bounded solver");

  // How the holistic optimizer staffs the room across loads.
  util::TextTable staffing({"load %", "old ON", "new ON", "old load share %",
                            "total power (W)"});
  for (const double pct : {20.0, 40.0, 60.0, 80.0}) {
    const auto point = eval.measure(core::Scenario::by_number(8), pct);
    if (!point.feasible) continue;
    size_t old_on = 0;
    size_t new_on = 0;
    double old_load = 0.0;
    double total_load = 0.0;
    for (size_t i = 0; i < eval.model().size(); ++i) {
      const bool is_old = i < n_old;
      if (point.plan.allocation.on[i]) (is_old ? old_on : new_on) += 1;
      if (is_old) old_load += point.plan.allocation.loads[i];
      total_load += point.plan.allocation.loads[i];
    }
    staffing.row({util::strf("%.0f", pct), util::strf("%zu", old_on),
                  util::strf("%zu", new_on),
                  util::strf("%.0f", 100.0 * old_load / total_load),
                  util::strf("%.0f", point.measurement.total_power_w)});
  }
  std::printf("Holistic staffing by load:\n%s\n", staffing.render().c_str());

  // The refresh question: what would an all-new room of equal capacity cost?
  const double mixed_cap = eval.capacity_files_s();
  const size_t equivalent_new =
      static_cast<size_t>(mixed_cap / 46.0 + 0.999);
  control::EvalOptions refreshed = options;
  refreshed.room = mixed_room(0, equivalent_new, seed + 1);
  refreshed.profiling.heterogeneous_power = false;
  control::EvalEngine after(refreshed);

  util::TextTable compare({"room", "capacity (files/s)", "power @60% (W)"});
  const auto before_pt = eval.measure(core::Scenario::by_number(8), 60.0);
  const auto after_pt = after.measure(core::Scenario::by_number(8), 60.0);
  compare.row({util::strf("mixed (%zu old + %zu new)", n_old, n_new),
               util::strf("%.0f", mixed_cap),
               util::strf("%.0f", before_pt.measurement.total_power_w)});
  compare.row({util::strf("refreshed (%zu new)", equivalent_new),
               util::strf("%.0f", after.capacity_files_s()),
               util::strf("%.0f", after_pt.measurement.total_power_w)});
  std::printf("Fleet-refresh comparison at 60%% load:\n%s\n",
              compare.render().c_str());
  std::printf("Retiring the old nodes would save %.0f W (%.1f%%) at this "
              "operating point.\n",
              before_pt.measurement.total_power_w -
                  after_pt.measurement.total_power_w,
              100.0 * (before_pt.measurement.total_power_w -
                       after_pt.measurement.total_power_w) /
                  before_pt.measurement.total_power_w);
  return 0;
}
