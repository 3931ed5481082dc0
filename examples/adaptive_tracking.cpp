// Live adaptive control: the holistic optimizer as a continuously running
// daemon, tracking noisy, surging demand on a live (transient) room —
// an operational extension beyond the paper's one-shot formulation.
//
// Shows the three-tier reaction scheme (proportional load tracking /
// bounded rebalance / full replan with anti-flapping dwell) and compares
// power-state churn against a naive controller that replans on every
// drift.
//
// Run: ./adaptive_tracking [--minutes 180] [--servers 20] [--seed 42]

#include <cmath>
#include <cstdio>

#include "control/adaptive.h"
#include "profiling/profiler.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

namespace {

/// Demand trace: slow ramp + noise + a surge in the middle.
double demand_fraction(int minute, int total, util::Rng& rng) {
  const double phase = static_cast<double>(minute) / total;
  double frac = 0.35 + 0.30 * std::sin(3.14159 * phase);  // slow hump
  if (minute > total / 2 && minute < total / 2 + 12) frac += 0.25;  // surge
  frac += rng.normal(0.0, 0.01);  // balancer noise
  return std::clamp(frac, 0.05, 0.95);
}

struct RunStats {
  control::AdaptiveStats ctl;
  double energy_kwh = 0.0;
  double worst_temp_c = 0.0;
};

RunStats run_trace(const sim::RoomConfig& room_cfg, int minutes,
                   const control::AdaptiveOptions& options, bool print) {
  sim::MachineRoom room(room_cfg);
  const auto profile =
      profiling::profile_room(room, profiling::ProfilingOptions::fast());
  control::AdaptiveController ctl(
      room, profile.model,
      control::SetPointPlanner::from_profile(profile.cooler), options);

  util::Rng rng(room_cfg.seed);
  util::Rng noise = rng.fork("demand");
  room.reset_energy();
  RunStats stats;
  const double capacity = profile.model.total_capacity();

  util::TextTable timeline({"minute", "demand %", "machines", "T_ac (C)",
                            "power (W)", "action totals (plan/reb/track)"});
  for (int minute = 0; minute < minutes; ++minute) {
    const double demand = capacity * demand_fraction(minute, minutes, noise);
    ctl.update(demand);
    room.run(60.0, 1.0);
    for (size_t i = 0; i < room.size(); ++i) {
      if (room.server(i).is_on()) {
        stats.worst_temp_c = std::max(stats.worst_temp_c, room.true_cpu_temp_c(i));
      }
    }
    if (print && minute % std::max(1, minutes / 18) == 0) {
      size_t on = 0;
      for (size_t i = 0; i < room.size(); ++i) on += room.server(i).is_on();
      timeline.row(
          {util::strf("%d", minute), util::strf("%.0f", 100.0 * demand / capacity),
           util::strf("%zu", on), util::strf("%.1f", room.supply_temp_c()),
           util::strf("%.0f", room.total_power_w()),
           util::strf("%zu/%zu/%zu", ctl.stats().full_replans,
                      ctl.stats().rebalances, ctl.stats().load_tracks)});
    }
  }
  if (print) std::printf("%s\n", timeline.render().c_str());
  stats.ctl = ctl.stats();
  stats.energy_kwh = room.total_energy_j() / 3.6e6;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.define("minutes", "length of the demand trace", "180");
  flags.define("servers", "machines in the rack", "20");
  flags.define("seed", "simulation seed", "42");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("coolopt adaptive-control demo").c_str());
    return 0;
  }
  const int minutes = flags.get_int("minutes", 180);

  sim::RoomConfig room_cfg;
  room_cfg.num_servers = static_cast<size_t>(flags.get_int("servers", 20));
  room_cfg.seed = static_cast<uint64_t>(flags.get_int("seed", 42));

  std::printf("Tracking %d minutes of drifting demand with the adaptive "
              "holistic controller:\n\n", minutes);
  control::AdaptiveOptions tuned;  // defaults: dwell 900 s, 4%% band
  const RunStats with_dwell = run_trace(room_cfg, minutes, tuned, true);

  control::AdaptiveOptions naive;
  naive.min_dwell_s = 0.0;
  naive.replan_threshold = 0.0;
  naive.allow_rebalance = false;
  const RunStats churny = run_trace(room_cfg, minutes, naive, false);

  util::TextTable summary({"controller", "replans", "rebalances", "tracks",
                           "power switches", "energy (kWh)", "worst CPU (C)"});
  auto add = [&](const char* name, const RunStats& r) {
    summary.row({name, util::strf("%zu", r.ctl.full_replans),
                 util::strf("%zu", r.ctl.rebalances),
                 util::strf("%zu", r.ctl.load_tracks),
                 util::strf("%zu", r.ctl.power_switches),
                 util::strf("%.2f", r.energy_kwh),
                 util::strf("%.1f", r.worst_temp_c)});
  };
  add("tuned (dwell 900s, 4% band)", with_dwell);
  add("naive (replan every drift)", churny);
  std::printf("%s\n", summary.render().c_str());
  std::printf("The tuned controller needs %.0f%% fewer power switches for "
              "essentially the same energy.\n",
              100.0 * (1.0 - static_cast<double>(with_dwell.ctl.power_switches) /
                                 static_cast<double>(churny.ctl.power_switches)));
  return 0;
}
