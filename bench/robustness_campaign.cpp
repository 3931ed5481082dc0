// Robustness campaign: the canonical fault storyline under each defense.
//
// The paper optimizes a healthy room; this bench measures what each layer of
// the resilience stack buys back when the room is NOT healthy. One scenario
// (server 3's fan fails at t=600s in the 20-machine testbed stand-in at 60%
// load), three arms that differ only in the defense stacked on the adaptive
// controller:
//
//   none        the fault goes unnoticed; the hot machine stays loaded
//   watchdog    set-point interventions only (cool the whole room harder)
//   supervisor  full ResilientController: quarantine + replan + re-admission
//
// Gates (exit nonzero on a miss):
//   * the fault bites (the no-defense arm violates at all), and the
//     supervisor's violation time is < 10% of the no-defense arm's;
//   * supervisor steady-state power within 5% of the post-quarantine
//     re-optimum (a fresh PlanEngine solve with the hot machine quarantined);
//   * the supervisor arm re-run from the same seed is bit-for-bit identical.
//
// Writes BENCH_robustness.json (bench/report.h) with all three arms so the
// defense trajectory can be tracked across commits.

#include <cmath>
#include <vector>

#include "bench/report.h"
#include "control/adaptive.h"
#include "control/fault_campaign.h"
#include "control/setpoint_planner.h"
#include "obs/session.h"
#include "profiling/profiler.h"
#include "sim/room.h"

using namespace coolopt;

namespace {

/// The machine the canonical scenario breaks (see FaultScenario::named).
constexpr size_t kFaultedServer = 3;

control::FaultCampaignOptions canonical_options(control::DefenseArm arm) {
  control::FaultCampaignOptions options;
  options.room.num_servers = 20;
  options.room.seed = 42;
  options.scenario = sim::FaultScenario::named("fan-failure");
  options.defense = arm;
  options.demand_fraction = 0.6;
  options.duration_s = 3600.0;
  options.control_period_s = 30.0;
  // The fault never heals in this storyline; keep the quarantine in force to
  // the end of the run so the steady-state comparison is crisp. Probation
  // and re-admission are exercised by the fan-flap scenario in the tests.
  options.resilient.probation_dwell_s = 2.0 * options.duration_s;
  return options;
}

bool identical(const control::FaultCampaignResult& a,
               const control::FaultCampaignResult& b) {
  return a.violation_s == b.violation_s && a.peak_cpu_c == b.peak_cpu_c &&
         a.shed_files == b.shed_files && a.energy_j == b.energy_j &&
         a.final_total_power_w == b.final_total_power_w &&
         a.final_throughput_files_s == b.final_throughput_files_s &&
         a.fault_events == b.fault_events && a.quarantines == b.quarantines &&
         a.readmissions == b.readmissions &&
         a.emergency_overrides == b.emergency_overrides &&
         a.watchdog_interventions == b.watchdog_interventions;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  bench::Report report("robustness");
  util::CliFlags flags;
  if (const int rc =
          report.parse_flags(flags, argc, argv, "Robustness campaign");
      rc >= 0) {
    return rc;
  }

  std::printf("Robustness campaign: fan failure at t=600s, 20 machines, "
              "60%% load, 3600s\n\n");

  const std::vector<control::DefenseArm> arms = {
      control::DefenseArm::kNone, control::DefenseArm::kWatchdog,
      control::DefenseArm::kSupervisor};
  std::vector<control::FaultCampaignResult> results;
  for (const control::DefenseArm arm : arms) {
    results.push_back(control::run_fault_campaign(canonical_options(arm)));
  }
  const control::FaultCampaignResult& none = results[0];
  const control::FaultCampaignResult& supervisor = results[2];

  // Reproducibility: the supervisor arm replayed from the same seed must be
  // bit-for-bit identical (sensors, scheduler, and planner are all
  // deterministic functions of the config).
  const control::FaultCampaignResult rerun = control::run_fault_campaign(
      canonical_options(control::DefenseArm::kSupervisor));
  const bool reproducible = identical(supervisor, rerun);

  // Post-quarantine re-optimum: the steady state a from-scratch adaptive
  // plan reaches on a room with the faulted machine already fenced off —
  // same model, same planner policy, no fault history. "Recovered" means
  // the supervisor's end state carries no residue of the episode (panic set
  // point, stale ON set); measured-vs-measured keeps model fit error out of
  // the comparison.
  const control::FaultCampaignOptions canon =
      canonical_options(control::DefenseArm::kSupervisor);
  const profiling::RoomProfile profile = [&] {
    sim::MachineRoom proto(canon.room);
    return profiling::profile_room(proto, profiling::ProfilingOptions::fast());
  }();
  sim::MachineRoom ref_room(canon.room);
  ref_room.set_fan_failed(kFaultedServer, true);
  control::AdaptiveController ref_controller(
      ref_room, profile.model,
      control::SetPointPlanner::from_profile(profile.cooler),
      canon.resilient.adaptive);
  ref_controller.set_quarantined({kFaultedServer});
  ref_controller.update(supervisor.demand_files_s);
  ref_room.settle();
  const double reoptimum_w = ref_room.total_power_w();
  const double power_gap_pct =
      reoptimum_w > 0.0
          ? 100.0 * std::abs(supervisor.final_total_power_w - reoptimum_w) /
                reoptimum_w
          : 100.0;

  for (const control::FaultCampaignResult& r : results) {
    const auto name = [&](const char* what) {
      return util::strf("%s.%s", to_string(r.defense), what);
    };
    report.row(name("violation"), r.violation_s, "s");
    report.row(name("peak_cpu"), r.peak_cpu_c, "C");
    report.row(name("shed"), r.shed_files, "files");
    report.row(name("energy"), r.energy_j / 1000.0, "kJ");
    report.row(name("final_power"), r.final_total_power_w, "W");
    report.row(name("quarantines"), static_cast<double>(r.quarantines),
               "count");
    report.row(name("emergency_overrides"),
               static_cast<double>(r.emergency_overrides), "count");
  }
  report.row("supervisor.reoptimum_power", reoptimum_w, "W");
  report.gate("none.violation", none.violation_s, ">", 0.0);
  report.gate("supervisor.violation_ratio",
              none.violation_s > 0.0 ? supervisor.violation_s / none.violation_s
                                     : 0.0,
              "<", 0.10);
  report.gate("supervisor.power_gap_pct", power_gap_pct, "<", 5.0);
  report.gate("supervisor.replay_identical", reproducible ? 1.0 : 0.0, "==",
              1.0);
  return report.finish();
}
