#include "tools/ctl_commands.h"

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "control/eval_engine.h"
#include "control/fault_campaign.h"
#include "core/engine.h"
#include "core/verification.h"
#include "obs/session.h"
#include "profiling/profile_io.h"
#include "service/client.h"
#include "service/wire.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

namespace coolopt::tools {
namespace {

constexpr const char* kUsage =
    "cooloptctl <command> [flags]\n"
    "\n"
    "Commands:\n"
    "  profile   profile a simulated room and save the fitted model\n"
    "  plan      compute an operating point from a saved model\n"
    "  audit     plan + feasibility/local-optimality audit\n"
    "  sweep     run scenarios across the load axis on a simulated room\n"
    "  frontier  print the maxL power-budget capacity frontier\n"
    "  inject    replay a fault scenario against a live room under a defense\n"
    "  client    send one request to a running cooloptd and print the reply\n"
    "  watch     subscribe to a running cooloptd and stream telemetry ticks\n"
    "\n"
    "Global flags (any command):\n"
    "  --metrics-out PATH  write the metrics + run-trace JSON on exit\n"
    "  --trace-out PATH    write the per-timestep trace CSV on exit\n"
    "\n"
    "Run `cooloptctl <command> --help` for the command's flags.\n";

sim::RoomConfig room_from_flags(const util::CliFlags& flags) {
  sim::RoomConfig cfg;
  cfg.num_servers = static_cast<size_t>(flags.get_int("servers", 20));
  cfg.num_racks = static_cast<size_t>(flags.get_int("racks", 1));
  cfg.seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  return cfg;
}

int cmd_profile(util::CliFlags& flags, int argc, const char* const* argv,
                std::ostream& out, std::ostream& err) {
  flags.define("servers", "machines in the room", "20");
  flags.define("racks", "racks in the room", "1");
  flags.define("seed", "simulation seed", "42");
  flags.define("out", "path for the fitted model CSV", "room_model.csv");
  flags.define("full", "paper-length campaign instead of the fast preset", "false");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage("cooloptctl profile");
    return 0;
  }

  sim::MachineRoom room(room_from_flags(flags));
  const auto options = flags.get_bool("full", false)
                           ? profiling::ProfilingOptions{}
                           : profiling::ProfilingOptions::fast();
  const auto profile = profiling::profile_room(room, options);
  const std::string path = flags.get_string("out", "room_model.csv");
  profiling::save_model(profile.model, path);
  out << util::strf(
      "Profiled %zu machines: power R^2 %.4f, cooler cfac %.1f W/K.\n",
      room.size(), profile.power.r_squared, profile.model.cooler.cfac);
  out << "Model written to " << path << "\n";
  return 0;
}

/// Shared by plan/audit: parse model+scenario+load, produce the plan.
struct PlanArgs {
  core::RoomModel model;
  core::Scenario scenario;
  double load = 0.0;
};

int parse_plan_args(util::CliFlags& flags, int argc, const char* const* argv,
                    const char* name, std::ostream& out, std::ostream& err,
                    PlanArgs& parsed) {
  flags.define("model", "path to a model CSV from `cooloptctl profile`",
               "room_model.csv");
  flags.define("scenario", "Fig. 4 scenario number (1-8)", "8");
  flags.define("load-pct", "total load, percent of capacity", "50");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage(name);
    return 1;  // handled, but no work
  }
  try {
    parsed.model = profiling::load_model(flags.get_string("model", "room_model.csv"));
  } catch (const std::exception& e) {
    err << "cannot load model: " << e.what() << "\n";
    return 2;
  }
  try {
    parsed.scenario = core::Scenario::by_number(flags.get_int("scenario", 8));
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
  parsed.load =
      parsed.model.total_capacity() * flags.get_double("load-pct", 50.0) / 100.0;
  return 0;
}

void print_plan(const core::RoomModel& model, const core::Plan& plan,
                std::ostream& out) {
  util::TextTable table({"machine", "state", "load", "util %", "pred CPU (C)"});
  for (size_t i = 0; i < model.size(); ++i) {
    const bool on = plan.allocation.on[i];
    table.row({util::strf("%zu", i), on ? "ON" : "off",
               on ? util::strf("%.1f", plan.allocation.loads[i]) : "-",
               on ? util::strf("%.0f", 100.0 * plan.allocation.loads[i] /
                                           model.machines[i].capacity)
                  : "-",
               on ? util::strf("%.1f",
                               core::predicted_cpu_temp(model, plan.allocation, i))
                  : "-"});
  }
  out << table.render();
  out << util::strf(
      "T_ac %.2f C; predicted IT %.0f W + cooling %.0f W = %.0f W total\n",
      plan.allocation.t_ac, plan.allocation.it_power_w,
      plan.allocation.cooling_power_w, plan.allocation.total_power_w);
}

int cmd_plan(util::CliFlags& flags, int argc, const char* const* argv,
             std::ostream& out, std::ostream& err) {
  PlanArgs args{core::RoomModel{}, core::Scenario{}, 0.0};
  const int rc = parse_plan_args(flags, argc, argv, "cooloptctl plan", out, err, args);
  if (rc != 0) return rc == 1 ? 0 : rc;

  const core::PlanEngine engine(std::move(args.model));
  const auto result = engine.solve(core::PlanRequest{args.scenario, args.load});
  if (!result.feasible()) {
    err << "no feasible operating point for " << args.scenario.name() << "\n";
    return 1;
  }
  out << args.scenario.name() << " at " << util::strf("%.1f", args.load)
      << " load units:\n";
  print_plan(engine.model(), *result.plan, out);
  return 0;
}

int cmd_audit(util::CliFlags& flags, int argc, const char* const* argv,
              std::ostream& out, std::ostream& err) {
  PlanArgs args{core::RoomModel{}, core::Scenario{}, 0.0};
  const int rc =
      parse_plan_args(flags, argc, argv, "cooloptctl audit", out, err, args);
  if (rc != 0) return rc == 1 ? 0 : rc;

  const core::PlanEngine engine(std::move(args.model));
  const auto result = engine.solve(core::PlanRequest{args.scenario, args.load});
  if (!result.feasible()) {
    err << "no feasible operating point\n";
    return 1;
  }
  const core::Plan& plan = *result.plan;
  const auto issues =
      core::audit_feasibility(engine.model(), plan.allocation, args.load);
  if (issues.empty()) {
    out << "feasibility: OK\n";
  } else {
    for (const auto& issue : issues) {
      out << "feasibility: " << issue.describe() << "\n";
    }
  }
  const auto audit = core::audit_local_optimality(engine.model(), plan.allocation);
  if (audit.locally_optimal) {
    out << "local optimality: OK (no improving perturbation found)\n";
  } else {
    out << util::strf("local optimality: IMPROVABLE by %.3f W via %s\n",
                      audit.best_improvement_w, audit.best_move.c_str());
  }
  return issues.empty() && audit.locally_optimal ? 0 : 1;
}

int cmd_sweep(util::CliFlags& flags, int argc, const char* const* argv,
              std::ostream& out, std::ostream& err) {
  flags.define("servers", "machines in the room", "20");
  flags.define("racks", "racks in the room", "1");
  flags.define("seed", "simulation seed", "42");
  flags.define("scenarios", "comma-separated Fig. 4 numbers", "1,7,8");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage("cooloptctl sweep");
    return 0;
  }
  std::vector<core::Scenario> scenarios;
  for (const std::string& tok :
       util::split(flags.get_string("scenarios", "1,7,8"), ',')) {
    int num = 0;
    if (!util::parse_int(tok, num)) {
      err << "bad scenario list entry: '" << tok << "'\n";
      return 2;
    }
    try {
      scenarios.push_back(core::Scenario::by_number(num));
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return 2;
    }
  }

  control::EvalOptions options;
  options.room = room_from_flags(flags);
  control::EvalEngine engine(options);
  // One batched request over the load-major grid: the engine profiles once,
  // then measures the points in parallel over pooled room replicas.
  const std::vector<double> loads = control::paper_load_axis();
  std::vector<control::EvalRequest> requests;
  requests.reserve(loads.size() * scenarios.size());
  for (const double pct : loads) {
    for (const auto& s : scenarios) requests.push_back({s, pct});
  }
  const std::vector<control::EvalPoint> points = engine.measure_batch(requests);
  std::vector<std::string> columns{"load %"};
  for (const auto& s : scenarios) columns.push_back(s.name());
  util::TextTable table(columns);
  size_t r = 0;
  for (const double pct : loads) {
    std::vector<std::string> row{util::strf("%.0f", pct)};
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const control::EvalPoint& point = points[r++];
      row.push_back(point.feasible
                        ? util::strf("%.0f", point.measurement.total_power_w)
                        : std::string("infeasible"));
    }
    table.row(std::move(row));
  }
  out << "Measured total power (W):\n" << table.render();
  return 0;
}

int cmd_frontier(util::CliFlags& flags, int argc, const char* const* argv,
                 std::ostream& out, std::ostream& err) {
  flags.define("model", "path to a model CSV", "room_model.csv");
  flags.define("k", "comma-separated machine counts", "4,8,12,16,20");
  flags.define("budgets", "comma-separated power budgets, W",
               "400,700,1000,1400,1900,2500");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage("cooloptctl frontier");
    return 0;
  }
  core::RoomModel model;
  try {
    model = profiling::load_model(flags.get_string("model", "room_model.csv"));
  } catch (const std::exception& e) {
    err << "cannot load model: " << e.what() << "\n";
    return 2;
  }
  const core::PlanEngine engine(std::move(model));
  const core::IncrementalConsolidator* consolidator = engine.consolidator();
  if (consolidator == nullptr) {
    err << "frontier needs the particle reduction (Eq. 23), which requires "
           "uniform w1/w2 across the fleet; this model is heterogeneous\n";
    return 2;
  }

  std::vector<size_t> ks;
  for (const std::string& tok : util::split(flags.get_string("k", ""), ',')) {
    int k = 0;
    if (!util::parse_int(tok, k) || k <= 0 ||
        static_cast<size_t>(k) > engine.model().size()) {
      err << "bad k: '" << tok << "'\n";
      return 2;
    }
    ks.push_back(static_cast<size_t>(k));
  }
  std::vector<std::string> columns{"budget (W)"};
  for (const size_t k : ks) columns.push_back(util::strf("k=%zu", k));
  util::TextTable table(columns);
  for (const std::string& tok : util::split(flags.get_string("budgets", ""), ',')) {
    double budget = 0.0;
    if (!util::parse_double(tok, budget)) {
      err << "bad budget: '" << tok << "'\n";
      return 2;
    }
    std::vector<std::string> row{util::strf("%.0f", budget)};
    for (const size_t k : ks) {
      const double l = consolidator->max_load_for_budget(budget, k);
      row.push_back(l > 0.0 ? util::strf("%.0f", l) : std::string("-"));
    }
    table.row(std::move(row));
  }
  out << "Servable load (files/s) per budget and fleet size:\n" << table.render();
  return 0;
}

/// Parses a comma-separated list of non-negative shard/machine indices.
/// Returns false (and reports via `err`) on any malformed entry.
bool parse_index_list(const std::string& csv, const char* what,
                      std::vector<size_t>& indices, std::ostream& err) {
  for (const std::string& tok : util::split(csv, ',')) {
    if (tok.empty()) continue;
    int index = 0;
    if (!util::parse_int(tok, index) || index < 0) {
      err << "bad " << what << " index: '" << tok << "'\n";
      return false;
    }
    indices.push_back(static_cast<size_t>(index));
  }
  return true;
}

int cmd_inject(util::CliFlags& flags, int argc, const char* const* argv,
               std::ostream& out, std::ostream& err) {
  flags.define("servers", "machines in the room", "20");
  flags.define("racks", "racks in the room", "1");
  flags.define("seed", "simulation seed", "42");
  flags.define("scenario", "fault scenario name (see below)", "fan-failure");
  flags.define("defense", "none | watchdog | supervisor", "supervisor");
  flags.define("load-pct", "offered load, percent of fitted capacity", "60");
  flags.define("duration", "simulated seconds to run", "3600");
  flags.define("control-period", "seconds between controller updates", "30");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage("cooloptctl inject");
    out << "Scenarios:";
    for (const std::string& name : sim::FaultScenario::names()) {
      out << " " << name;
    }
    out << "\n";
    return 0;
  }

  control::FaultCampaignOptions options;
  options.room = room_from_flags(flags);
  options.scenario =
      sim::FaultScenario::named(flags.get_string("scenario", "fan-failure"));
  options.defense = control::parse_defense(flags.get_string("defense", "supervisor"));
  options.demand_fraction = flags.get_double("load-pct", 60.0) / 100.0;
  options.duration_s = flags.get_double("duration", 3600.0);
  options.control_period_s = flags.get_double("control-period", 30.0);

  const control::FaultCampaignResult r = control::run_fault_campaign(options);
  out << util::strf(
      "Injected '%s' against %zu machines under defense '%s':\n",
      r.scenario.c_str(), options.room.num_servers, to_string(r.defense));
  util::TextTable table({"metric", "value"});
  table.row({"fault events fired", util::strf("%zu", r.fault_events)});
  table.row({"violation time (s)", util::strf("%.0f", r.violation_s)});
  table.row({"peak CPU (C)", util::strf("%.2f", r.peak_cpu_c)});
  table.row({"T_max (C)", util::strf("%.2f", r.t_max_c)});
  table.row({"shed work (files)", util::strf("%.0f", r.shed_files)});
  table.row({"energy (kJ)", util::strf("%.1f", r.energy_j / 1000.0)});
  table.row({"final power (W)", util::strf("%.0f", r.final_total_power_w)});
  table.row({"final throughput (files/s)",
             util::strf("%.1f", r.final_throughput_files_s)});
  table.row({"quarantines", util::strf("%zu", r.quarantines)});
  table.row({"re-admissions", util::strf("%zu", r.readmissions)});
  table.row({"emergency overrides", util::strf("%zu", r.emergency_overrides)});
  table.row({"watchdog interventions",
             util::strf("%zu", r.watchdog_interventions)});
  out << table.render();
  return 0;
}

/// The first `count` values of a wire enum, scanned for the one the
/// protocol calls `name`.
template <typename Enum>
std::optional<Enum> wire_named(std::string_view name, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const auto value = static_cast<Enum>(i);
    if (name == service::to_string(value)) return value;
  }
  return std::nullopt;
}

// One-shot protocol client: builds a request from flags (or sends a raw
// --line verbatim), prints the response line, and exits with the
// response's ok field so scripts can branch on it.
int cmd_client(util::CliFlags& flags, int argc, const char* const* argv,
               std::ostream& out, std::ostream& err) {
  flags.define("host", "cooloptd address", "127.0.0.1");
  flags.define("port", "cooloptd port", "7077");
  flags.define("verb",
               "ping | health | plan | fleetplan | measure | sweep | inject",
               "ping");
  flags.define("priority", "admission priority: high | normal | low", "normal");
  flags.define("id", "request id echoed in the response", "1");
  flags.define("scenario", "Fig. 4 scenario number (plan/measure)", "8");
  flags.define("load-pct", "load, percent of fitted capacity", "50");
  flags.define("quarantined", "comma-separated machine indices (plan)", "");
  flags.define("down-shards",
               "comma-separated fleet shard indices to treat as unavailable "
               "(fleetplan)",
               "");
  flags.define("deadline-ms",
               "drop the request unanswered-by-solve if it waits longer than "
               "this in the server queue (plan/fleetplan)",
               "0");
  flags.define("timeout-ms",
               "ceiling on each wait for a response line (0 = block forever)",
               "0");
  flags.define("retries",
               "total attempts for idempotent verbs (reconnect + resend with "
               "capped exponential backoff)",
               "1");
  flags.define("trace-id",
               "attach this trace id to plan/fleetplan; the response then "
               "carries a trace block with timed spans",
               "");
  flags.define("fault", "fault scenario name (inject)", "fan-failure");
  flags.define("defense", "none | watchdog | supervisor (inject)", "supervisor");
  flags.define("line", "raw protocol line to send instead of building one", "");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage("cooloptctl client");
    return 0;
  }

  const int timeout_ms = flags.get_int("timeout-ms", 0);
  const int retries = flags.get_int("retries", 1);
  if (timeout_ms < 0 || retries < 1) {
    err << "client: --timeout-ms must be non-negative, --retries >= 1\n";
    return 2;
  }

  std::string line = flags.get_string("line", "");
  service::WireRequest request;
  if (line.empty()) {
    request.id = static_cast<uint64_t>(flags.get_int("id", 1));
    const std::string verb = flags.get_string("verb", "ping");
    const std::optional<service::Verb> known =
        wire_named<service::Verb>(verb, service::kVerbCount);
    // subscribe streams ticks, so `cooloptctl watch` owns it.
    if (!known.has_value() || *known == service::Verb::kSubscribe) {
      err << "unknown verb '" << verb << "'\n";
      return 2;
    }
    request.verb = *known;
    const std::string priority = flags.get_string("priority", "normal");
    const std::optional<service::Priority> level =
        wire_named<service::Priority>(priority, service::kPriorityCount);
    if (!level.has_value()) {
      err << "unknown priority '" << priority << "'\n";
      return 2;
    }
    request.priority = *level;
    request.scenario = flags.get_int("scenario", 8);
    request.load_pct = flags.get_double("load-pct", 50.0);
    if (!parse_index_list(flags.get_string("quarantined", ""), "quarantined",
                          request.quarantined, err)) {
      return 2;
    }
    if (!parse_index_list(flags.get_string("down-shards", ""), "shard",
                          request.down_shards, err)) {
      return 2;
    }
    const int deadline_ms = flags.get_int("deadline-ms", 0);
    if (deadline_ms < 0) {
      err << "client: --deadline-ms must be non-negative\n";
      return 2;
    }
    if (deadline_ms > 0) {
      request.deadline_ms = static_cast<uint64_t>(deadline_ms);
    }
    request.fault = flags.get_string("fault", "fan-failure");
    request.defense = flags.get_string("defense", "supervisor");
    const std::string trace_id = flags.get_string("trace-id", "");
    if (!trace_id.empty()) {
      int id = 0;
      if (!util::parse_int(trace_id, id) || id < 0) {
        err << "client: --trace-id must be a non-negative integer, got '"
            << trace_id << "'\n";
        return 2;
      }
      request.trace_id = static_cast<uint64_t>(id);
    }
    line = service::encode_request(request);
  }

  service::ServiceClient client;
  client.set_timeout_ms(static_cast<uint64_t>(timeout_ms));
  if (!client.connect(flags.get_string("host", "127.0.0.1"),
                      static_cast<uint16_t>(flags.get_int("port", 7077)))) {
    err << client.last_error() << "\n";
    return 1;
  }
  std::optional<std::string> response;
  if (flags.get_string("line", "").empty()) {
    // Structured path: retries apply only to idempotent verbs (the client
    // enforces this), so --retries can never double-run an inject.
    service::ServiceClient::RetryPolicy policy;
    policy.attempts = retries;
    response = client.call_with_retry(request, policy);
  } else {
    response = client.call(line);
  }
  if (!response.has_value()) {
    err << client.last_error() << "\n";
    return 1;
  }
  out << *response << "\n";
  // Exit status mirrors the response envelope so scripts can branch on it.
  service::JsonValue doc;
  std::string parse_error;
  if (service::parse_json(*response, doc, parse_error)) {
    const service::JsonValue* ok = doc.find("ok");
    if (ok != nullptr && ok->is_bool() && !ok->as_bool()) return 1;
  }
  return 0;
}

/// Renders one parsed telemetry tick as indented `name = value` lines so a
/// terminal session stays readable; `--raw` bypasses this for pipelines.
void print_tick(const service::JsonValue& doc, std::ostream& out) {
  const service::JsonValue* tick = doc.find("tick");
  const service::JsonValue* seq = doc.find("seq");
  const service::JsonValue* closing = doc.find("closing");
  out << util::strf(
      "tick %.0f  seq %.0f%s\n",
      tick != nullptr && tick->is_number() ? tick->as_number() : 0.0,
      seq != nullptr && seq->is_number() ? seq->as_number() : 0.0,
      closing != nullptr && closing->is_bool() && closing->as_bool()
          ? "  (closing: server is draining)"
          : "");
  const service::JsonValue* counters = doc.find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, v] : counters->members()) {
      if (v.is_number()) {
        out << util::strf("  %s = %.0f\n", name.c_str(), v.as_number());
      }
    }
  }
  const service::JsonValue* gauges = doc.find("gauges");
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, v] : gauges->members()) {
      if (v.is_number()) {
        out << util::strf("  %s = %g\n", name.c_str(), v.as_number());
      }
    }
  }
  const service::JsonValue* histograms = doc.find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, h] : histograms->members()) {
      if (!h.is_object()) continue;
      const service::JsonValue* count = h.find("count");
      const service::JsonValue* p50 = h.find("p50");
      const service::JsonValue* p99 = h.find("p99");
      out << util::strf(
          "  %s: count %.0f, p50 %g, p99 %g\n", name.c_str(),
          count != nullptr && count->is_number() ? count->as_number() : 0.0,
          p50 != nullptr && p50->is_number() ? p50->as_number() : 0.0,
          p99 != nullptr && p99->is_number() ? p99->as_number() : 0.0);
    }
  }
}

// Streaming telemetry client: sends one subscribe, prints the ack facts,
// then renders metric-delta ticks until the server's tick budget runs out,
// a drain writes the closing tick, or the connection drops.
int cmd_watch(util::CliFlags& flags, int argc, const char* const* argv,
              std::ostream& out, std::ostream& err) {
  flags.define("host", "cooloptd address", "127.0.0.1");
  flags.define("port", "cooloptd port", "7077");
  flags.define("id", "subscribe request id, echoed in every tick", "1");
  flags.define("interval-ms",
               "milliseconds between ticks (the server clamps out-of-range "
               "values and echoes the effective interval in the ack)",
               "1000");
  flags.define("ticks", "stop after N ticks (0 = stream until drain)", "0");
  flags.define("raw", "print raw NDJSON tick lines instead of rendering", "false");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    err << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    out << flags.usage("cooloptctl watch");
    return 0;
  }

  const int interval_ms = flags.get_int("interval-ms", 1000);
  const int ticks = flags.get_int("ticks", 0);
  if (interval_ms <= 0 || ticks < 0) {
    err << "watch: --interval-ms must be positive, --ticks non-negative\n";
    return 2;
  }
  service::WireRequest request;
  request.verb = service::Verb::kSubscribe;
  request.id = static_cast<uint64_t>(flags.get_int("id", 1));
  request.interval_ms = static_cast<uint64_t>(interval_ms);
  request.ticks = static_cast<uint64_t>(ticks);

  service::ServiceClient client;
  if (!client.connect(flags.get_string("host", "127.0.0.1"),
                      static_cast<uint16_t>(flags.get_int("port", 7077)))) {
    err << client.last_error() << "\n";
    return 1;
  }
  const std::optional<std::string> ack =
      client.call(service::encode_request(request));
  if (!ack.has_value()) {
    err << client.last_error() << "\n";
    return 1;
  }
  service::JsonValue doc;
  std::string parse_error;
  if (!service::parse_json(*ack, doc, parse_error)) {
    err << "watch: unparseable ack: " << parse_error << "\n";
    return 1;
  }
  const service::JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    err << *ack << "\n";
    return 1;
  }
  const bool raw = flags.get_bool("raw", false);
  // The ack echoes the budget the server accepted; counting received ticks
  // against it is what ends a bounded watch (the server stops streaming
  // after the budget but keeps the connection open for other verbs).
  const service::JsonValue* result = doc.find("result");
  const service::JsonValue* accepted =
      result != nullptr ? result->find("ticks") : nullptr;
  const uint64_t budget =
      accepted != nullptr && accepted->is_number()
          ? static_cast<uint64_t>(accepted->as_number())
          : static_cast<uint64_t>(ticks);
  if (!raw) {
    const service::JsonValue* eff =
        result != nullptr ? result->find("interval_ms") : nullptr;
    out << util::strf(
        "subscribed (every %.0f ms%s); ctrl-c to stop\n",
        eff != nullptr && eff->is_number()
            ? eff->as_number()
            : static_cast<double>(interval_ms),
        ticks > 0 ? util::strf(", %d ticks", ticks).c_str() : "");
  }

  uint64_t received = 0;
  for (;;) {
    const std::optional<std::string> line = client.recv_line();
    if (!line.has_value()) {
      // EOF without a closing tick: the connection dropped.
      return 0;
    }
    if (raw) {
      out << *line << "\n";
    }
    service::JsonValue tick_doc;
    if (!service::parse_json(*line, tick_doc, parse_error)) continue;
    if (!raw) print_tick(tick_doc, out);
    const service::JsonValue* closing = tick_doc.find("closing");
    if (closing != nullptr && closing->is_bool() && closing->as_bool()) {
      return 0;
    }
    ++received;
    if (budget > 0 && received >= budget) return 0;
  }
}

}  // namespace

int run_cooloptctl(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err) {
  // Peel off the global observability flags before command dispatch so every
  // command gains --metrics-out/--trace-out without declaring them; the
  // session flushes its exports when this function returns.
  std::string metrics_out;
  std::string trace_out;
  const std::vector<std::string> args = obs::strip_obs_flags(
      std::vector<std::string>(argv, argv + argc), metrics_out, trace_out);
  obs::ObsSession obs_session(metrics_out, trace_out);
  std::vector<const char*> argv_stripped;
  argv_stripped.reserve(args.size());
  for (const std::string& a : args) argv_stripped.push_back(a.c_str());
  argc = static_cast<int>(argv_stripped.size());
  argv = argv_stripped.data();

  if (argc < 2) {
    err << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  // Re-point argv so each command's CliFlags sees its own flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;

  util::CliFlags flags;
  try {
    if (command == "profile") return cmd_profile(flags, sub_argc, sub_argv, out, err);
    if (command == "plan") return cmd_plan(flags, sub_argc, sub_argv, out, err);
    if (command == "audit") return cmd_audit(flags, sub_argc, sub_argv, out, err);
    if (command == "sweep") return cmd_sweep(flags, sub_argc, sub_argv, out, err);
    if (command == "frontier") return cmd_frontier(flags, sub_argc, sub_argv, out, err);
    if (command == "inject") return cmd_inject(flags, sub_argc, sub_argv, out, err);
    if (command == "client") return cmd_client(flags, sub_argc, sub_argv, out, err);
    if (command == "watch") return cmd_watch(flags, sub_argc, sub_argv, out, err);
  } catch (const std::exception& e) {
    err << "cooloptctl " << command << ": " << e.what() << "\n";
    return 1;
  }
  if (command == "--help" || command == "help") {
    out << kUsage;
    return 0;
  }
  err << "unknown command '" << command << "'\n\n" << kUsage;
  return 2;
}

}  // namespace coolopt::tools
