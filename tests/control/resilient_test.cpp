// End-to-end resilience: fault scheduler -> watchdog detection ->
// quarantine -> replan over the survivors -> recovery, plus the probation
// re-admission path and the campaign harness the robustness bench runs.
#include "control/resilient.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "control/fault_campaign.h"
#include "profiling/profiler.h"
#include "sim/fault_scheduler.h"

namespace coolopt::control {
namespace {

struct Fixture {
  sim::MachineRoom room;
  profiling::RoomProfile profile;

  explicit Fixture(size_t n = 8, uint64_t seed = 81)
      : room([&] {
          sim::RoomConfig cfg;
          cfg.num_servers = n;
          cfg.seed = seed;
          return cfg;
        }()),
        profile(profiling::profile_room(room, profiling::ProfilingOptions::fast())) {}

  ResilientController controller(ResilientOptions options = {}) {
    return ResilientController(room, profile.model,
                               SetPointPlanner::from_profile(profile.cooler),
                               options);
  }
  double capacity() const { return profile.model.total_capacity(); }

  double hottest_true_on() {
    double worst = room.ambient_temp_c();
    for (size_t i = 0; i < room.size(); ++i) {
      if (room.server(i).is_on()) {
        worst = std::max(worst, room.true_cpu_temp_c(i));
      }
    }
    return worst;
  }

  /// One control period: supervisor cycle, then 30 s of transient room.
  void cycle(ResilientController& ctl, double demand) {
    ctl.update(demand);
    room.run(30.0, 1.0);
  }
};

TEST(ResilientController, FanFailureIsQuarantinedAndTheRoomRecovers) {
  Fixture f;
  sim::FaultScheduler scheduler(f.room,
                                sim::FaultScenario::named("fan-failure"));
  auto ctl = f.controller();
  const double demand = 0.6 * f.capacity();

  // 1800 simulated seconds; the fan dies at t=600.
  for (int c = 0; c < 60; ++c) {
    scheduler.advance_to(f.room.time_s());
    f.cycle(ctl, demand);
  }
  ASSERT_EQ(scheduler.applied_count(), 1u);

  // The failure was detected and the machine fenced off...
  EXPECT_GE(ctl.stats().quarantines, 1u);
  const std::vector<size_t> q = ctl.quarantined();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0], 3u);
  EXPECT_FALSE(f.room.server(3).is_on());

  // ...the defense actually acted (watchdog ladder or emergency path)...
  EXPECT_GE(ctl.stats().replans, 1u);
  EXPECT_GT(ctl.watchdog().stats().interventions +
                ctl.stats().emergency_overrides,
            0u);

  // ...the violation episode was real, bounded, and is over...
  EXPECT_GT(ctl.stats().violation_seconds, 0.0);
  EXPECT_LT(ctl.stats().violation_seconds, 600.0);
  EXPECT_GE(ctl.stats().last_recovery_s, 0.0);
  EXPECT_LE(f.hottest_true_on(), ctl.watchdog().t_max());

  // ...and the surviving fleet serves the full demand (7 of 8 machines
  // carry 60% comfortably — nothing to shed).
  EXPECT_DOUBLE_EQ(ctl.adaptive().shed_load(), 0.0);
  EXPECT_NEAR(f.room.throughput_files_s(), demand, 1e-6);
}

TEST(ResilientController, RepairedMachineIsReadmittedAfterProbation) {
  Fixture f;
  ResilientOptions o;
  o.probation_dwell_s = 300.0;
  auto ctl = f.controller(o);
  const double demand = 0.6 * f.capacity();

  f.cycle(ctl, demand);
  f.room.set_fan_failed(3, true);

  bool repaired = false;
  for (int c = 0; c < 50; ++c) {
    if (!repaired && ctl.stats().quarantines >= 1) {
      // Field tech swaps the fan while the machine sits in quarantine.
      f.room.set_fan_failed(3, false);
      repaired = true;
    }
    f.cycle(ctl, demand);
  }
  ASSERT_TRUE(repaired);
  EXPECT_GE(ctl.stats().readmissions, 1u);
  // Healthy again: no re-quarantine after the probation replan.
  EXPECT_EQ(ctl.stats().quarantines, 1u);
  EXPECT_TRUE(ctl.quarantined().empty());
  EXPECT_NEAR(f.room.throughput_files_s(), demand, 1e-6);
}

TEST(ResilientController, ShedsExplicitlyWhenDemandExceedsSurvivors) {
  Fixture f;
  auto ctl = f.controller();
  const double demand = 0.95 * f.capacity();

  f.cycle(ctl, demand);
  f.room.set_fan_failed(3, true);
  for (int c = 0; c < 40; ++c) f.cycle(ctl, demand);

  ASSERT_GE(ctl.stats().quarantines, 1u);
  // 7 of 8 machines cannot carry 95%: the plan must say so out loud.
  EXPECT_GT(ctl.adaptive().shed_load(), 0.0);
  EXPECT_GT(ctl.stats().shed_files, 0.0);
  EXPECT_LT(f.room.throughput_files_s(), demand);
  // Best-effort is still a real plan serving the survivors.
  EXPECT_TRUE(ctl.adaptive().has_plan());
  EXPECT_GT(f.room.throughput_files_s(), 0.0);
}

// Quarantine churn must route through the engine's incremental Algorithm 1
// path (engine.incremental.* counters), not the windowed-probe fallback.
// The fitted sim model has jittered per-machine power coefficients, so the
// test pins a uniform power model (the paper's assumption, and what the
// incremental table requires) onto the same thermal fits.
TEST(ResilientController, QuarantineReplansUseTheIncrementalEnginePath) {
  Fixture f;
  core::RoomModel uniform = f.profile.model;
  for (auto& machine : uniform.machines) {
    machine.power = uniform.machines.front().power;
  }
  auto engine =
      std::make_shared<core::PlanEngine>(core::share_model(std::move(uniform)));
  ResilientController ctl(f.room, engine,
                          SetPointPlanner::from_profile(f.profile.cooler), {});
  f.room.set_fan_failed(3, true);
  for (int i = 0; i < 60 && ctl.stats().quarantines == 0; ++i) {
    f.cycle(ctl, 0.6 * f.capacity());
  }
  ASSERT_GE(ctl.stats().quarantines, 1u);
  const core::EngineCounters counters = engine->counters();
  EXPECT_GT(counters.incremental_replans, 0u);
  EXPECT_GT(counters.incremental_cold_builds, 0u);
}

TEST(FaultCampaign, SupervisorBeatsNoDefenseAndReplaysDeterministically) {
  FaultCampaignOptions options;
  options.room.num_servers = 10;
  options.room.seed = 42;
  options.scenario = sim::FaultScenario::named("fan-failure");
  options.duration_s = 1200.0;
  options.resilient.probation_dwell_s = 3600.0;  // keep the quarantine

  options.defense = DefenseArm::kNone;
  const FaultCampaignResult none = run_fault_campaign(options);
  options.defense = DefenseArm::kSupervisor;
  const FaultCampaignResult sup = run_fault_campaign(options);
  const FaultCampaignResult replay = run_fault_campaign(options);

  EXPECT_EQ(none.fault_events, 1u);
  EXPECT_GT(none.violation_s, 0.0);
  EXPECT_EQ(none.quarantines, 0u);

  EXPECT_GE(sup.quarantines, 1u);
  EXPECT_LT(sup.violation_s, 0.5 * none.violation_s);
  EXPECT_LT(sup.peak_cpu_c, none.peak_cpu_c);

  // Same seed, same storyline: bit-for-bit identical replay.
  EXPECT_EQ(sup.violation_s, replay.violation_s);
  EXPECT_EQ(sup.peak_cpu_c, replay.peak_cpu_c);
  EXPECT_EQ(sup.energy_j, replay.energy_j);
  EXPECT_EQ(sup.final_total_power_w, replay.final_total_power_w);
  EXPECT_EQ(sup.shed_files, replay.shed_files);
  EXPECT_EQ(sup.quarantines, replay.quarantines);
  EXPECT_EQ(sup.emergency_overrides, replay.emergency_overrides);
}

TEST(FaultCampaign, DemandFractionOutsideUnitIntervalIsInvalidArgument) {
  FaultCampaignOptions options;
  options.room.num_servers = 6;
  options.duration_s = 60.0;
  // Rejected before the profiling pass: -0.1 used to reach the controller's
  // own invalid_argument, 2.0 its runtime_error, each after profiling.
  for (const double fraction : {-0.1, -1e-12, 1.0 + 1e-12, 2.0}) {
    options.demand_fraction = fraction;
    EXPECT_THROW(run_fault_campaign(options), std::invalid_argument)
        << fraction;
  }
  for (const double fraction : {0.0, 1.0}) {
    options.demand_fraction = fraction;
    EXPECT_NO_THROW(run_fault_campaign(options)) << fraction;
  }
}

TEST(FaultCampaign, ParseDefenseRoundTrips) {
  for (const DefenseArm arm : {DefenseArm::kNone, DefenseArm::kWatchdog,
                               DefenseArm::kSupervisor}) {
    EXPECT_EQ(parse_defense(to_string(arm)), arm);
  }
  EXPECT_THROW(parse_defense("prayer"), std::invalid_argument);
}

}  // namespace
}  // namespace coolopt::control
