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
// Targets (exit nonzero on a miss):
//   * supervisor violation time < 10% of the no-defense arm's;
//   * supervisor steady-state power within 5% of the post-quarantine
//     re-optimum (a fresh PlanEngine solve with the hot machine quarantined);
//   * the supervisor arm re-run from the same seed is bit-for-bit identical.
//
// Emits BENCH_robustness.json (override with --json-out) with all three arms
// so the defense trajectory can be tracked across commits.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "control/adaptive.h"
#include "control/fault_campaign.h"
#include "control/setpoint_planner.h"
#include "obs/json_writer.h"
#include "obs/session.h"
#include "profiling/profiler.h"
#include "sim/room.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

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
  util::CliFlags flags;
  flags.define("json-out", "machine-readable results path",
               "BENCH_robustness.json");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("Robustness campaign").c_str());
    return 0;
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

  util::TextTable table({"defense", "violation (s)", "peak CPU (C)",
                         "shed (files)", "energy (kJ)", "final W",
                         "quarantines", "overrides"});
  for (const control::FaultCampaignResult& r : results) {
    table.row({to_string(r.defense), util::strf("%.0f", r.violation_s),
               util::strf("%.2f", r.peak_cpu_c),
               util::strf("%.0f", r.shed_files),
               util::strf("%.1f", r.energy_j / 1000.0),
               util::strf("%.0f", r.final_total_power_w),
               util::strf("%zu", r.quarantines),
               util::strf("%zu", r.emergency_overrides)});
  }
  std::printf("%s\n", table.render().c_str());

  const double violation_ratio =
      none.violation_s > 0.0 ? supervisor.violation_s / none.violation_s : 0.0;
  const bool fault_bites = none.violation_s > 0.0;
  const bool violation_ok = fault_bites && violation_ratio < 0.10;
  const bool power_ok = reoptimum_w > 0.0 && power_gap_pct < 5.0;
  const bool pass = violation_ok && power_ok && reproducible;

  std::printf("supervisor violation %.0fs vs no-defense %.0fs (ratio %.3f, "
              "target < 0.10)\n",
              supervisor.violation_s, none.violation_s, violation_ratio);
  std::printf("supervisor final power %.0f W vs post-quarantine re-optimum "
              "%.0f W (gap %.2f%%, target < 5%%)\n",
              supervisor.final_total_power_w, reoptimum_w, power_gap_pct);
  std::printf("seed-replay bit-for-bit identical: %s\n",
              reproducible ? "yes" : "NO");

  const std::string json_path =
      flags.get_string("json-out", "BENCH_robustness.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 2;
  }
  std::string json;
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("bench", "robustness");
  w.kv("scenario", supervisor.scenario);
  w.kv("room_servers", static_cast<uint64_t>(20));
  w.kv("demand_files_s", supervisor.demand_files_s);
  w.kv("t_max_c", supervisor.t_max_c);
  w.key("arms");
  w.begin_array();
  for (const control::FaultCampaignResult& r : results) {
    w.begin_object();
    w.kv("defense", to_string(r.defense));
    w.kv("violation_s", r.violation_s);
    w.kv("peak_cpu_c", r.peak_cpu_c);
    w.kv("shed_files", r.shed_files);
    w.kv("energy_j", r.energy_j);
    w.kv("final_total_power_w", r.final_total_power_w);
    w.kv("final_throughput_files_s", r.final_throughput_files_s);
    w.kv("fault_events", static_cast<uint64_t>(r.fault_events));
    w.kv("quarantines", static_cast<uint64_t>(r.quarantines));
    w.kv("readmissions", static_cast<uint64_t>(r.readmissions));
    w.kv("emergency_overrides", static_cast<uint64_t>(r.emergency_overrides));
    w.kv("watchdog_interventions",
         static_cast<uint64_t>(r.watchdog_interventions));
    w.end_object();
  }
  w.end_array();
  w.kv("violation_ratio", violation_ratio);
  w.kv("reoptimum_power_w", reoptimum_w);
  w.kv("power_gap_pct", power_gap_pct);
  w.kv("reproducible", reproducible);
  w.kv("pass", pass);
  w.end_object();
  out << json << "\n";
  std::printf("(JSON written to %s)\n", json_path.c_str());

  std::printf("Targets (violation < 10%% of no-defense; power within 5%% of "
              "re-optimum; seed-reproducible): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
