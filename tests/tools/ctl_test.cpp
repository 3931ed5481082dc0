#include "tools/ctl_commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/synthetic.h"
#include "service/server.h"
#include "service/wire.h"
#include "util/strings.h"

namespace coolopt::tools {
namespace {

struct CtlResult {
  int code = 0;
  std::string out;
  std::string err;
};

CtlResult run(std::vector<const char*> args) {
  args.insert(args.begin(), "cooloptctl");
  std::ostringstream out;
  std::ostringstream err;
  CtlResult r;
  r.code = run_cooloptctl(static_cast<int>(args.size()), args.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string temp_model_path() {
  return testing::TempDir() + "/cooloptctl_test_model.csv";
}

TEST(Cooloptctl, NoArgsPrintsUsage) {
  const CtlResult r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("Commands:"), std::string::npos);
}

TEST(Cooloptctl, HelpIsSuccessful) {
  const CtlResult r = run({"--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("profile"), std::string::npos);
}

TEST(Cooloptctl, UnknownCommandFails) {
  const CtlResult r = run({"defragment"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cooloptctl, ProfileThenPlanThenAuditPipeline) {
  const std::string model = temp_model_path();
  const CtlResult profile =
      run({"profile", "--servers=6", "--seed=5", ("--out=" + model).c_str()});
  ASSERT_EQ(profile.code, 0) << profile.err;
  EXPECT_NE(profile.out.find("Model written"), std::string::npos);

  const CtlResult plan = run(
      {"plan", ("--model=" + model).c_str(), "--scenario=8", "--load-pct=50"});
  ASSERT_EQ(plan.code, 0) << plan.err;
  EXPECT_NE(plan.out.find("T_ac"), std::string::npos);
  EXPECT_NE(plan.out.find("#8"), std::string::npos);

  const CtlResult audit = run(
      {"audit", ("--model=" + model).c_str(), "--scenario=8", "--load-pct=50"});
  EXPECT_EQ(audit.code, 0) << audit.out << audit.err;
  EXPECT_NE(audit.out.find("feasibility: OK"), std::string::npos);
  EXPECT_NE(audit.out.find("local optimality: OK"), std::string::npos);

  const CtlResult frontier =
      run({"frontier", ("--model=" + model).c_str(), "--k=2,4",
           "--budgets=300,600"});
  EXPECT_EQ(frontier.code, 0) << frontier.err;
  EXPECT_NE(frontier.out.find("k=2"), std::string::npos);

  std::remove(model.c_str());
}

/// A 12-machine room (`cooloptctl profile --servers 12 --seed 5`), fixed
/// here so the frontier below depends on nothing but the solver.
constexpr const char* kFrontierModel = R"(kind,id,w1,w2,alpha,beta,gamma,capacity
constraints,,48,10,28,,,
cooler,,46.664895671079826,29,-160.4784197837505,0.26952290761248404,140,
machine,0,1.5065543830909542,36.601918107183813,0.98030378842471677,0.19356056129833787,0.61029372545798422,40.639793245459764
machine,1,1.5065543830909542,36.601918107183813,0.98706027539348073,0.16036599138351482,0.66730350359032964,40.06046955037619
machine,2,1.5065543830909542,36.601918107183813,0.9456464840762796,0.20560619761596774,1.5122480187102294,40.480356637174886
machine,3,1.5065543830909542,36.601918107183813,0.94299503417798991,0.19645774986188713,1.2645767150383589,38.931251871653842
machine,4,1.5065543830909542,36.601918107183813,0.93171422020245243,0.19566884279045338,1.9522872172000001,37.960430545294791
machine,5,1.5065543830909542,36.601918107183813,0.92545153437046201,0.20703819740765192,2.3636146974565269,39.330936895044751
machine,6,1.5065543830909542,36.601918107183813,0.89550092521562763,0.19233739067124619,3.2460761780909215,40.466994213854221
machine,7,1.5065543830909542,36.601918107183813,0.89148830408044821,0.19914996229264767,3.1755226544310657,41.225304054673572
machine,8,1.5065543830909542,36.601918107183813,0.89225484683906953,0.25367928446359539,3.3922653610312503,39.025826685362595
machine,9,1.5065543830909542,36.601918107183813,0.85450515754583634,0.15549784819045079,4.2864914460757344,40.471871646239933
machine,10,1.5065543830909542,36.601918107183813,0.83880402476420191,0.27039090427902324,4.7609973777717869,40.043398664315689
machine,11,1.5065543830909542,36.601918107183813,0.82924708156469451,0.16346184708355002,4.9747778538400178,38.954636807370477
)";

/// The whole stdout of `frontier` over that room: maxL(A, P_b, k) by
/// bisection at every (budget, k), the 0 ("-"), capped and interior cases.
constexpr const char* kFrontierTable = R"(Servable load (files/s) per budget and fleet size:
budget (W)  k=1  k=2  k=3  k=4  k=6  k=8  k=12
----------------------------------------------
300         77   58   33   9    -    -    -   
500         92   155  166  142  93   45   -   
700         107  180  230  259  226  177  80  
1000        129  218  279  317  366  376  279 
1400        131  257  344  395  462  499  500 
1900        131  257  373  478  582  636  666 
2500        131  257  373  478  680  800  856 
3200        131  257  373  478  680  875  1077
)";

TEST(Cooloptctl, FrontierPrintsThePinnedTable) {
  const std::string model = temp_model_path();
  {
    std::ofstream csv(model);
    csv << kFrontierModel;
  }
  const CtlResult r = run({"frontier", ("--model=" + model).c_str(),
                           "--k=1,2,3,4,6,8,12",
                           "--budgets=300,500,700,1000,1400,1900,2500,3200"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, kFrontierTable);
  std::remove(model.c_str());
}

TEST(Cooloptctl, PlanWithMissingModelFails) {
  const CtlResult r = run({"plan", "--model=/no/such/model.csv"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot load model"), std::string::npos);
}

TEST(Cooloptctl, PlanWithBadScenarioFails) {
  const std::string model = temp_model_path();
  ASSERT_EQ(run({"profile", "--servers=4", ("--out=" + model).c_str()}).code, 0);
  const CtlResult r =
      run({"plan", ("--model=" + model).c_str(), "--scenario=11"});
  EXPECT_EQ(r.code, 2);
  std::remove(model.c_str());
}

TEST(Cooloptctl, SweepPrintsRequestedScenarios) {
  const CtlResult r = run({"sweep", "--servers=6", "--seed=3", "--scenarios=7,8"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#7"), std::string::npos);
  EXPECT_NE(r.out.find("#8"), std::string::npos);
  EXPECT_NE(r.out.find("100"), std::string::npos);
}

TEST(Cooloptctl, SweepRejectsBadScenarioList) {
  const CtlResult r = run({"sweep", "--scenarios=7,x"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cooloptctl, SweepMetricsOutWritesValidTelemetryJson) {
  const std::string metrics_path = testing::TempDir() + "/ctl_sweep_metrics.json";
  const std::string flag = "--metrics-out=" + metrics_path;
  const CtlResult r =
      run({"sweep", "--servers=6", "--scenarios=8", flag.c_str()});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream f(metrics_path);
  ASSERT_TRUE(f.good()) << metrics_path;
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string doc = buf.str();
  service::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(service::parse_json(doc, parsed, error)) << error;
  EXPECT_NE(doc.find("\"schema\":\"coolopt.obs.v1\""), std::string::npos);
  // The acceptance surface: optimizer solves + latency histogram,
  // consolidation query latency histogram, and the per-step series.
  EXPECT_NE(doc.find("\"optimizer.closed_form.solves\""), std::string::npos);
  EXPECT_NE(doc.find("\"optimizer.closed_form.solve_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"consolidation.query_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"t_ac_c\""), std::string::npos);
  EXPECT_NE(doc.find("\"p_ac_w\""), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST(Cooloptctl, InjectRunsACampaignAndExportsMetrics) {
  const std::string metrics_path = testing::TempDir() + "/ctl_inject_metrics.json";
  const std::string flag = "--metrics-out=" + metrics_path;
  const CtlResult r =
      run({"inject", "--servers=8", "--seed=7", "--scenario=fan-failure",
           "--defense=supervisor", "--duration=900", flag.c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fan-failure"), std::string::npos);
  EXPECT_NE(r.out.find("violation time"), std::string::npos);
  EXPECT_NE(r.out.find("quarantines"), std::string::npos);

  std::ifstream f(metrics_path);
  ASSERT_TRUE(f.good()) << metrics_path;
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string doc = buf.str();
  service::JsonValue parsed;
  std::string error;
  EXPECT_TRUE(service::parse_json(doc, parsed, error)) << error;
  EXPECT_NE(doc.find("\"sim.fault_events\""), std::string::npos);
  EXPECT_NE(doc.find("\"resilience.checks\""), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST(Cooloptctl, InjectRejectsUnknownScenarioAndDefense) {
  EXPECT_EQ(run({"inject", "--scenario=meteor-strike"}).code, 1);
  EXPECT_EQ(run({"inject", "--defense=prayer"}).code, 1);
}

TEST(Cooloptctl, CommandHelpWorks) {
  for (const char* cmd : {"profile", "sweep", "frontier", "inject"}) {
    const CtlResult r = run({cmd, "--help"});
    EXPECT_EQ(r.code, 0) << cmd;
    EXPECT_FALSE(r.out.empty()) << cmd;
  }
}

// --- client: verb and priority names come from the protocol table ---

TEST(Cooloptctl, ClientSendsEveryVerbAndPriorityItNames) {
  core::SyntheticModelOptions model;
  model.machines = 12;
  service::ServiceConfig config;
  config.model = core::share_model(core::make_synthetic_model(model));
  config.fleet_shards = 2;
  service::PlanningService server(std::move(config));
  server.start();
  const std::string port = util::strf("--port=%u", server.port());
  // Model-backed: measure, sweep and inject answer unsupported_verb, which
  // still names the verb the client sent.
  for (const char* verb : {"ping", "plan", "fleetplan", "measure", "sweep",
                           "inject", "health"}) {
    const std::string flag = std::string("--verb=") + verb;
    const CtlResult r = run({"client", port.c_str(), flag.c_str()});
    service::JsonValue doc;
    std::string error;
    ASSERT_TRUE(service::parse_json(r.out, doc, error))
        << verb << ": " << error << " " << r.err;
    EXPECT_EQ(doc.find("verb")->as_string(), verb) << r.out;
  }
  for (const char* priority : {"high", "normal", "low"}) {
    const std::string flag = std::string("--priority=") + priority;
    const CtlResult r = run({"client", port.c_str(), flag.c_str()});
    EXPECT_EQ(r.code, 0) << priority << ": " << r.err;
  }
  server.stop();
}

TEST(Cooloptctl, ClientSendsADegradedFleetplan) {
  core::SyntheticModelOptions model;
  model.machines = 24;
  service::ServiceConfig config;
  config.model = core::share_model(core::make_synthetic_model(model));
  config.fleet_shards = 4;
  service::PlanningService server(std::move(config));
  server.start();
  const std::string port = util::strf("--port=%u", server.port());
  const CtlResult r = run({"client", port.c_str(), "--verb=fleetplan",
                           "--load-pct=40", "--down-shards=1,3",
                           "--retries=3"});
  server.stop();
  ASSERT_EQ(r.code, 0) << r.err << r.out;
  service::JsonValue doc;
  std::string error;
  ASSERT_TRUE(service::parse_json(r.out, doc, error)) << error << " " << r.out;
  EXPECT_TRUE(doc.find("ok")->as_bool()) << r.out;
  const service::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr) << r.out;
  EXPECT_EQ(result->find("shards_down")->as_number(), 2.0) << r.out;
  const std::vector<service::JsonValue>& shards =
      result->find("shards")->items();
  ASSERT_EQ(shards.size(), 4u) << r.out;
  for (size_t s = 0; s < shards.size(); ++s) {
    const service::JsonValue* status = shards[s].find("status");
    if (s == 1 || s == 3) {
      ASSERT_NE(status, nullptr) << "shard " << s << ": " << r.out;
      EXPECT_EQ(status->as_string(), "down") << "shard " << s;
    } else if (status != nullptr) {
      EXPECT_NE(status->as_string(), "down") << "shard " << s;
    }
  }

  // A malformed shard list never reaches the wire.
  const CtlResult bad = run({"client", port.c_str(), "--verb=fleetplan",
                             "--down-shards=1,x"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_EQ(bad.err, "bad shard index: 'x'\n");
}

TEST(Cooloptctl, ClientRejectsSubscribeAndUnknownNames) {
  // subscribe streams, so `cooloptctl watch` owns it.
  for (const char* verb : {"subscribe", "telemetry"}) {
    const std::string flag = std::string("--verb=") + verb;
    const CtlResult r = run({"client", flag.c_str()});
    EXPECT_EQ(r.code, 2) << verb;
    EXPECT_EQ(r.err, std::string("unknown verb '") + verb + "'\n");
  }
  const CtlResult r = run({"client", "--priority=urgent"});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.err, "unknown priority 'urgent'\n");
}

}  // namespace
}  // namespace coolopt::tools
