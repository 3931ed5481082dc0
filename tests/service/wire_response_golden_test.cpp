// The response encoders, pinned byte for byte: a committed corpus of every
// encode_* output over fixed inputs (plans on seeded synthetic rooms, a
// traced and a deadline-echo response, healthy and degraded fleet plans,
// escaped error envelopes, ping/health/subscribe/inject, a telemetry tick
// carrying awkward doubles, measure and sweep points). The corpus file holds
// one case per two lines: "> label", then the exact response line.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/synthetic.h"
#include "service/wire.h"
#include "util/strings.h"

namespace coolopt::service {
namespace {

using Case = std::pair<std::string, std::string>;

core::RoomModel room(size_t n) {
  core::SyntheticModelOptions options;
  options.machines = n;
  options.seed = 1000 + n;
  return core::make_synthetic_model(options);
}

/// What the service answers for one plan request: the engine's result, or
/// the invalid_argument envelope when the engine rejects the request.
std::string plan_line(const core::PlanEngine& engine, uint64_t id,
                      const core::PlanRequest& request,
                      const obs::SpanContext* spans = nullptr,
                      std::optional<uint64_t> deadline_ms = std::nullopt) {
  try {
    return encode_plan_response(id, engine.solve(request), spans, deadline_ms);
  } catch (const std::invalid_argument& e) {
    return encode_error(id, Verb::kPlan, kErrInvalidArgument, e.what());
  }
}

/// Fixed span records: unstarted slots carry zero times, so the trace
/// object's bytes depend only on names, parents and shard details.
obs::SpanContext fixed_spans() {
  obs::SpanContext spans;
  spans.reset(4242);
  const int root = spans.open_slot("service.request", -1);
  spans.open_slot("engine.solve", root);
  spans.open_slot("fleet.shard", root, 3);
  return spans;
}

fleet::FleetPlanResult fleet_result(bool degraded) {
  fleet::FleetPlanResult result;
  const size_t sizes[] = {8, 12, 16};
  for (size_t s = 0; s < 3; ++s) {
    const core::PlanEngine engine(room(sizes[s]));
    const double load = engine.model().total_capacity() * 0.4;
    core::PlanRequest request(core::Scenario::by_number(8), load);
    request.shard = static_cast<int>(s);
    result.shard_loads.push_back(load);
    result.shard_results.push_back(engine.solve(request));
    result.shard_status.push_back(fleet::ShardStatus::kOk);
  }
  if (degraded) {
    result.shard_status[1] = fleet::ShardStatus::kDown;
    result.shard_results[1].plan.reset();
    result.shard_results[1].error = "shard 1 \"crashed\":\n\tsolver\\abort";
    result.shard_status[2] = fleet::ShardStatus::kDegraded;
    result.shard_results[2].shed_load = 17.25;
    result.shard_results[2].shed_priority = {4, 0, 9};
    result.unassigned_load = 3.125;
    result.redistributed_load = 41.0 / 3.0;
  }
  for (size_t s = 0; s < 3; ++s) {
    const core::PlanResult& r = result.shard_results[s];
    if (r.plan.has_value()) {
      result.total_power_w += r.plan->allocation.total_power_w;
    }
    result.shed_load += r.shed_load;
  }
  result.shed_load += result.unassigned_load;
  return result;
}

control::EvalPoint eval_point(int scenario, double load_pct, bool feasible) {
  control::EvalPoint point;
  point.scenario = core::Scenario::by_number(scenario);
  point.load_pct = load_pct;
  point.feasible = feasible;
  if (!feasible) return point;
  const core::PlanEngine engine(room(10));
  point.plan = *engine
                    .solve(core::PlanRequest(
                        point.scenario,
                        engine.model().total_capacity() * load_pct / 100.0))
                    .plan;
  point.measurement.it_power_w = 1234.5678901234;
  point.measurement.crac_power_w = 987.654321;
  point.measurement.total_power_w = 2222.2222101234;
  point.measurement.peak_cpu_temp_c = 47.999999999999;
  point.measurement.t_ac_achieved_c = 18.25;
  point.measurement.t_sp_c = 1.0 / 3.0;
  point.measurement.throughput_files_s = 100.0 * load_pct;
  point.measurement.machines_on = 7;
  point.measurement.temp_violation = scenario % 2 == 0;
  return point;
}

/// Doubles at the edges of the "%.12g" layout: zero signs, subnormals,
/// ties and carries at the twelfth digit, the fixed/exponent switch points
/// and magnitudes at both ends of the range.
std::vector<double> awkward_doubles() {
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.1,
          1.0 / 3.0,
          -2.0 / 3.0,
          123456789012.5,
          999999999999.0,
          999999999999.5,
          1e12,
          -1e12,
          9007199254740992.0,
          9007199254740993.0,
          1e-4,
          9.99999999999949e-5,
          1e-5,
          0.000123456789012345,
          1e-10,
          1e-11,
          1e37,
          1e38,
          1e300,
          -1e-300,
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::epsilon(),
          2.5e-8,
          6.02214076e23,
          299792458.0,
          1.00000000000049,
          1.0000000000005,
          0.30000000000000004,
          std::nextafter(1e15, 0.0),
          std::nextafter(1e-7, 1.0)};
}

obs::MetricsDelta fixed_delta() {
  obs::MetricsDelta delta;
  delta.from_sequence = 11;
  delta.to_sequence = 12;
  delta.counters = {{"service.requests", 18446744073709551615ull},
                    {"service.trace.requests", 0},
                    {"weird \"name\"\n", 3}};
  const std::vector<double> values = awkward_doubles();
  for (size_t i = 0; i < values.size(); ++i) {
    delta.gauges.emplace_back(util::strf("g%02zu", i), values[i]);
  }
  obs::HistogramSnapshot s;
  s.count = 4096;
  s.sum = 123456.789;
  s.min = 0.5;
  s.max = 9999.75;
  s.mean = s.sum / 4096.0;
  s.p50 = 17.125;
  s.p95 = 812.0000000001;
  s.p99 = 2048.5;
  delta.histograms = {{"service.latency.plan_us", s},
                      {"engine.solve_us", obs::HistogramSnapshot{}}};
  return delta;
}

std::vector<Case> golden_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string label, std::string line) {
    cases.emplace_back(std::move(label), std::move(line));
  };

  // Every scenario on seeded rooms of 8..32 machines, at three loads.
  uint64_t id = 1;
  for (size_t n = 8; n <= 32; n += 4) {
    const core::PlanEngine engine(room(n));
    const double capacity = engine.model().total_capacity();
    for (int scenario = 1; scenario <= 8; ++scenario) {
      for (const double frac : {0.2, 0.55, 0.9}) {
        const core::PlanRequest request(core::Scenario::by_number(scenario),
                                        capacity * frac);
        add(util::strf("plan n=%zu scenario=%d load=%.2f", n, scenario, frac),
            plan_line(engine, id++, request));
      }
    }
    // Shed load: half the room quarantined under a 90% target.
    std::vector<size_t> quarantined;
    for (size_t i = 0; i < n; i += 2) quarantined.push_back(i);
    for (const int scenario : {1, 4, 8}) {
      const core::PlanRequest request(core::Scenario::by_number(scenario),
                                      capacity * 0.9, quarantined);
      add(util::strf("plan shed n=%zu scenario=%d", n, scenario),
          plan_line(engine, id++, request));
    }
    // Rejected requests: an out-of-range machine and a negative load.
    add(util::strf("plan bad quarantine n=%zu", n),
        plan_line(engine, id++,
                  core::PlanRequest(core::Scenario::by_number(8),
                                    capacity * 0.5, {n + 3})));
    add(util::strf("plan negative load n=%zu", n),
        plan_line(engine, id++,
                  core::PlanRequest(core::Scenario::by_number(8), -1.0)));
  }

  const core::PlanEngine engine(room(12));
  const core::PlanRequest mid(core::Scenario::by_number(8),
                              engine.model().total_capacity() * 0.45);
  core::PlanRequest sharded = mid;
  sharded.shard = 5;
  add("plan deadline echo", plan_line(engine, 900, mid, nullptr, 250));
  add("plan shard attribution", plan_line(engine, 901, sharded));
  const obs::SpanContext spans = fixed_spans();
  add("plan traced", plan_line(engine, 902, mid, &spans));
  add("plan traced with deadline", plan_line(engine, 903, mid, &spans, 60000));

  add("fleetplan healthy", encode_fleetplan_response(910, fleet_result(false)));
  add("fleetplan degraded", encode_fleetplan_response(911, fleet_result(true)));
  add("fleetplan traced with deadline",
      encode_fleetplan_response(912, fleet_result(true), &spans, 5));

  add("error escaped message",
      encode_error(920, Verb::kPlan, kErrInvalidArgument,
                   "load \"-1\" is \\invalid\\\n\tline2\x01\x1f end \xc3\xa9"));
  add("error with queue depth",
      encode_error(921, Verb::kFleetplan, kErrShedQueueFull, "queue full", 64));
  add("error deadline",
      encode_error(922, Verb::kMeasure, kErrDeadlineExceeded,
                   "deadline of 5 ms expired after 7.5 ms in the queue", 0));
  add("error bad request id 0",
      encode_error(0, Verb::kPing, kErrBadRequest, "expected '{'"));

  ServerInfo info;
  info.machines = 200;
  info.capacity_files_s = 8123.456789;
  info.queue_capacity = 256;
  info.workers = 4;
  add("ping monolithic", encode_ping_response(930, info));
  info.sim_backed = true;
  info.fleet_shards = 8;
  add("ping fleet sim", encode_ping_response(931, info));

  HealthInfo health;
  health.queue_depth = 3;
  health.queue_capacity = 256;
  health.workers = 4;
  add("health plain", encode_health_response(940, health));
  health.draining = true;
  health.shard_status = {"ok", "degraded", "down"};
  add("health shards draining", encode_health_response(941, health));

  add("subscribe ack", encode_subscribe_response(950, 250, 12));
  add("subscribe ack unbounded", encode_subscribe_response(951, 1, 0));
  const obs::MetricsDelta delta = fixed_delta();
  add("telemetry tick", encode_telemetry_tick(950, 7, delta));
  add("telemetry closing tick", encode_telemetry_tick(950, 8, delta, true));
  add("telemetry empty tick", encode_telemetry_tick(951, 1, obs::MetricsDelta{}));

  add("measure feasible", encode_measure_response(960, eval_point(8, 45.0, true)));
  add("measure infeasible",
      encode_measure_response(961, eval_point(3, 99.5, false)));
  const std::vector<control::EvalPoint> points = {
      eval_point(1, 10.0, true), eval_point(4, 62.5, true),
      eval_point(7, 100.0, false)};
  add("sweep", encode_sweep_response(962, points));
  add("sweep empty", encode_sweep_response(963, {}));

  control::FaultCampaignResult fault;
  fault.scenario = "crac \"degraded\"";
  fault.defense = control::DefenseArm::kWatchdog;
  fault.demand_files_s = 512.5;
  fault.t_max_c = 48.0;
  fault.violation_s = 0.000123456789;
  fault.peak_cpu_c = 51.23456789012345;
  fault.shed_files = 1e-9;
  fault.energy_j = 31415926535.8979;
  fault.final_total_power_w = 2718.281828459;
  fault.final_throughput_files_s = 499.99999999999;
  fault.fault_events = 3;
  fault.quarantines = 2;
  fault.readmissions = 1;
  fault.emergency_overrides = 0;
  fault.watchdog_interventions = 5;
  add("inject", encode_inject_response(970, fault));
  return cases;
}

TEST(WireResponseGolden, CorpusReplaysByteIdentical) {
  std::ifstream in(std::string(COOLOPT_SOURCE_DIR) +
                   "/tests/service/data/wire_response_golden.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind('#', 0) != 0) lines.push_back(line);
  }
  const std::vector<Case> cases = golden_cases();
  ASSERT_EQ(lines.size(), 2 * cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(lines[2 * i], "> " + cases[i].first);
    EXPECT_EQ(cases[i].second, lines[2 * i + 1]) << cases[i].first;
  }
}

}  // namespace
}  // namespace coolopt::service
