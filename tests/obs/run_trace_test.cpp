#include "obs/run_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/closed_form.h"
#include "core/incremental.h"
#include "core/synthetic.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "service/wire.h"
#include "sim/room.h"
#include "tests/core/on_set_support.h"
#include "util/csv.h"

namespace coolopt::obs {
namespace {

using core::test_support::all_machines;

TEST(RunTrace, RecordsAllThreeStreams) {
  RunTrace trace;
  trace.record_step(StepSample{1.0, false, 18.0, 24.0, 200.0, 400.0, 600.0,
                               40.0, {}, {}, {}});
  trace.record_solve(SolveSample{"lp", 8, 55.0, true, 1e-9});
  trace.record_event(EventSample{1.0, "setpoint", 22.5, "scenario 8"});
  EXPECT_EQ(trace.step_count(), 1u);
  EXPECT_EQ(trace.solves().size(), 1u);
  EXPECT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.solves()[0].solver, "lp");
  EXPECT_EQ(trace.dropped_steps(), 0u);
}

TEST(RunTrace, DropsBeyondTheCapsWithoutGrowing) {
  TraceOptions options;
  options.max_steps = 3;
  RunTrace trace(options);
  for (int i = 0; i < 10; ++i) {
    StepSample s;
    s.time_s = i;
    trace.record_step(s);
  }
  EXPECT_EQ(trace.step_count(), 3u);
  EXPECT_EQ(trace.dropped_steps(), 7u);
  EXPECT_DOUBLE_EQ(trace.steps().back().time_s, 2.0);  // oldest kept
}

TEST(RunTrace, JsonExportIsSyntaxValid) {
  RunTrace trace;
  StepSample s;
  s.time_s = 0.5;
  s.server_power_w = {100.0, 40.0};
  trace.record_step(s);
  trace.record_solve(SolveSample{"closed_form", 20, 4.2, true, 1e-6});
  trace.record_event(EventSample{0.5, "watchdog.alarm", 47.9, "machine \"3\""});

  std::ostringstream os;
  trace.to_json(os);
  service::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(service::parse_json(os.str(), parsed, error)) << error << "\n" << os.str();
  EXPECT_NE(os.str().find("\"solver\":\"closed_form\""), std::string::npos);
  EXPECT_NE(os.str().find("\"dropped_steps\":0"), std::string::npos);
}

TEST(RunTrace, StepsCsvParsesWithExpectedColumns) {
  RunTrace trace;
  StepSample s;
  s.time_s = 2.0;
  s.steady = true;
  s.t_ac_c = 17.5;
  s.p_ac_w = 350.0;
  trace.record_step(s);

  std::ostringstream os;
  trace.steps_to_csv(os);
  const util::CsvTable table = util::parse_csv(os.str());
  const std::vector<std::string> expected{"time_s",   "steady",   "t_ac_c",
                                          "t_return_c", "p_ac_w", "p_it_w",
                                          "p_total_w", "peak_cpu_c"};
  EXPECT_EQ(table.columns, expected);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "1");
}

// Golden-schema test: a short MachineRoom run under an attached trace must
// produce one sample per step/settle with physically coherent fields.
TEST(RunTrace, ShortRoomRunProducesSchemaValidTrace) {
  MetricsRegistry registry;
  RunTrace trace;
  sim::RoomConfig cfg;
  cfg.num_servers = 4;
  {
    ScopedObservation scope(&registry, &trace);
    sim::MachineRoom room(cfg);  // constructor settles once
    room.set_all_power(true);
    room.set_uniform_utilization(0.5);
    room.run(10.0, 1.0);  // 10 transient steps
  }

  const auto steps = trace.steps();
  ASSERT_GE(steps.size(), 11u);
  size_t transients = 0;
  for (const StepSample& s : steps) {
    if (!s.steady) ++transients;
    EXPECT_GE(s.p_ac_w, 0.0);
    EXPECT_GE(s.p_it_w, 0.0);
    EXPECT_DOUBLE_EQ(s.p_total_w, s.p_ac_w + s.p_it_w);
    EXPECT_GT(s.peak_cpu_c, 0.0);
    ASSERT_EQ(s.server_power_w.size(), cfg.num_servers);
    ASSERT_EQ(s.server_cpu_c.size(), cfg.num_servers);
    ASSERT_EQ(s.server_load_files_s.size(), cfg.num_servers);
  }
  EXPECT_EQ(transients, 10u);
  EXPECT_EQ(registry.counter("sim.steps").value(), 10u);
  EXPECT_GE(registry.counter("sim.settles").value(), 1u);

  std::ostringstream os;
  trace.to_json(os);
  service::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(service::parse_json(os.str(), parsed, error)) << error;
}

TEST(Instrumentation, OptimizerAndConsolidatorRecordMetrics) {
  core::SyntheticModelOptions options;
  options.machines = 8;
  const core::RoomModel model = core::make_synthetic_model(options);

  MetricsRegistry registry;
  RunTrace trace;
  {
    ScopedObservation scope(&registry, &trace);
    const core::AnalyticOptimizer closed_form(model);
    closed_form.solve(all_machines(model), 0.5 * model.total_capacity());

    const core::IncrementalConsolidator consolidator(core::share_model(model));
    core::ConsolidationChoice choice;
    ASSERT_TRUE(
        consolidator.query_best_into(0.5 * model.total_capacity(), choice));
  }

  EXPECT_EQ(registry.counter("optimizer.closed_form.solves").value(), 1u);
  EXPECT_EQ(registry.histogram("optimizer.closed_form.solve_us").count(), 1u);
  // Every ON machine sits at T_max up to rounding (Eq. 17).
  EXPECT_LT(registry.histogram("optimizer.closed_form.kkt_residual_c")
                .snapshot()
                .max,
            1e-6);

  EXPECT_EQ(registry.counter("consolidation.preprocesses").value(), 1u);
  EXPECT_EQ(registry.counter("consolidation.queries").value(), 1u);
  EXPECT_EQ(registry.histogram("consolidation.query_us").count(), 1u);

  bool saw_closed_form = false;
  bool saw_query = false;
  for (const SolveSample& s : trace.solves()) {
    if (s.solver == "closed_form") {
      saw_closed_form = true;
      EXPECT_EQ(s.n, 8u);
    }
    if (s.solver == "consolidation.query") saw_query = true;
  }
  EXPECT_TRUE(saw_closed_form);
  EXPECT_TRUE(saw_query);
}

// The closed form's O(n) KKT residual is a traced-run diagnostic: a
// registry alone (what cooloptd attaches) counts and times the solve but
// never computes it.
TEST(Instrumentation, ClosedFormResidualOnlyWhenTraced) {
  core::SyntheticModelOptions options;
  options.machines = 8;
  const core::RoomModel model = core::make_synthetic_model(options);
  const core::AnalyticOptimizer closed_form(model);
  MetricsRegistry registry;
  {
    ScopedObservation scope(&registry);
    closed_form.solve(all_machines(model), 0.5 * model.total_capacity());
  }
  EXPECT_EQ(registry.counter("optimizer.closed_form.solves").value(), 1u);
  EXPECT_EQ(registry.histogram("optimizer.closed_form.solve_us").count(), 1u);
  EXPECT_EQ(
      registry.histogram("optimizer.closed_form.kkt_residual_c").count(), 0u);
}

TEST(Instrumentation, UnattachedRunsRecordNothing) {
  ASSERT_EQ(metrics(), nullptr);
  ASSERT_EQ(trace(), nullptr);
  core::SyntheticModelOptions options;
  options.machines = 4;
  const core::RoomModel model = core::make_synthetic_model(options);
  const core::AnalyticOptimizer closed_form(model);
  closed_form.solve(all_machines(model), 0.4 * model.total_capacity());
  // Still detached, and no way to have recorded anywhere.
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(trace(), nullptr);
}

TEST(ObsSession, WritesCombinedJsonAndTraceCsv) {
  const std::string metrics_path = testing::TempDir() + "/obs_session_m.json";
  const std::string trace_path = testing::TempDir() + "/obs_session_t.csv";
  {
    ObsSession session(metrics_path, trace_path);
    ASSERT_TRUE(session.active());
    sim::RoomConfig cfg;
    cfg.num_servers = 3;
    sim::MachineRoom room(cfg);
    room.run(3.0, 1.0);
  }  // destructor flushes

  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.good());
  std::stringstream mbuf;
  mbuf << mf.rdbuf();
  service::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(service::parse_json(mbuf.str(), parsed, error)) << error;
  EXPECT_NE(mbuf.str().find("\"schema\":\"coolopt.obs.v1\""), std::string::npos);
  EXPECT_NE(mbuf.str().find("\"sim.steps\":3"), std::string::npos);

  const util::CsvTable table = util::load_csv(trace_path);
  EXPECT_EQ(table.columns.front(), "time_s");
  EXPECT_GE(table.rows.size(), 4u);  // 1 settle + 3 steps

  // The session must have detached on destruction.
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(trace(), nullptr);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(ObsSession, ArgvConstructorStripsFlagsInPlace) {
  const std::string metrics_path = testing::TempDir() + "/obs_argv_m.json";
  std::string a0 = "prog";
  std::string a1 = "--metrics-out";
  std::string a2 = metrics_path;
  std::string a3 = "--keep-me";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), nullptr};
  int argc = 4;
  {
    ObsSession session(argc, argv);
    EXPECT_TRUE(session.active());
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "--keep-me");
    EXPECT_EQ(argv[2], nullptr);
  }
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace coolopt::obs
