#include "service/wire.h"

#include <gtest/gtest.h>

#include <string>

#include "core/synthetic.h"
#include "util/strings.h"

namespace coolopt::service {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(text, doc, error)) << error;
  return doc;
}

std::string parse_fail(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json(text, doc, error)) << "accepted: " << text;
  return error;
}

TEST(JsonParser, ParsesScalarsObjectsArrays) {
  const JsonValue doc = parse_ok(
      R"({"a":1.5,"b":"x\n\"y","c":[true,false,null],"d":{"e":-2e3}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 1.5);
  EXPECT_EQ(doc.find("b")->as_string(), "x\n\"y");
  ASSERT_TRUE(doc.find("c")->is_array());
  EXPECT_EQ(doc.find("c")->items().size(), 3u);
  EXPECT_TRUE(doc.find("c")->items()[0].as_bool());
  EXPECT_EQ(doc.find("c")->items()[2].kind(), JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc.find("d")->find("e")->as_number(), -2000.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, ParsesUnicodeEscapesByEscapeSequence) {
  // The six-character backslash-u escape for e-acute must decode to the
  // UTF-8 bytes 0xC3 0xA9.
  const JsonValue esc = parse_ok("{\"s\":\"A\\u00e9\"}");
  EXPECT_EQ(esc.find("s")->as_string(), "A\xc3\xa9");
}

TEST(JsonParser, PassesRawUtf8BytesThroughAndRejectsShortEscapes) {
  // é (e-acute) UTF-8-encodes to 0xC3 0xA9; A is plain 'A'.
  const JsonValue doc = parse_ok(R"({"s":"Aé"})");
  EXPECT_EQ(doc.find("s")->as_string(), "A\xc3\xa9");
  parse_fail(R"("\u12g4")");
  parse_fail(R"("\u12")");
}

TEST(JsonParser, RejectsMalformedInput) {
  parse_fail("");
  parse_fail("{");
  parse_fail("{\"a\":}");
  parse_fail("[1,]");
  parse_fail("{\"a\":1,}");
  parse_fail("tru");
  parse_fail("nan");
  parse_fail("'single'");
  parse_fail("{\"a\" 1}");
  parse_fail("\"unterminated");
  parse_fail("\"bad\\q\"");
  parse_fail("\"ctrl\x01\"");
}

TEST(JsonParser, RejectsTrailingGarbage) {
  parse_fail("{} {}");
  parse_fail("1 2");
  EXPECT_NE(parse_fail("{}x").find("trailing garbage"), std::string::npos);
  parse_ok("{}  \n ");  // trailing whitespace is fine
}

TEST(JsonParser, RejectsDuplicateKeys) {
  const std::string error = parse_fail(R"({"a":1,"a":2})");
  EXPECT_NE(error.find("duplicate key"), std::string::npos);
}

TEST(JsonParser, RejectsNumbersOutsideRfc8259) {
  parse_fail("01");     // leading zero
  parse_fail("-");      // sign alone
  parse_fail("1.");     // empty fraction
  parse_fail("1e");     // empty exponent
  parse_fail("+1");     // plus sign
  parse_fail(".5");     // no integer part
  parse_ok("-0.5e+10");
  parse_ok("0");
}

TEST(JsonParser, EnforcesDepthLimit) {
  std::string deep;
  for (size_t i = 0; i <= kMaxJsonDepth + 1; ++i) deep += "[";
  for (size_t i = 0; i <= kMaxJsonDepth + 1; ++i) deep += "]";
  const std::string error = parse_fail(deep);
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
  // One level under the limit parses.
  std::string ok;
  for (size_t i = 0; i < kMaxJsonDepth; ++i) ok += "[";
  for (size_t i = 0; i < kMaxJsonDepth; ++i) ok += "]";
  parse_ok(ok);
}

// --- requests ---

WireRequest request_ok(const std::string& line) {
  WireRequest request;
  std::string error;
  EXPECT_TRUE(parse_request(line, request, error)) << error;
  return request;
}

std::string request_fail(const std::string& line, uint64_t expect_id = 0) {
  WireRequest request;
  std::string error;
  EXPECT_FALSE(parse_request(line, request, error)) << "accepted: " << line;
  EXPECT_EQ(request.id, expect_id);
  return error;
}

TEST(ParseRequest, PlanWithAllFields) {
  const WireRequest r = request_ok(
      R"({"id":7,"verb":"plan","priority":"high","scenario":3,)"
      R"("load_pct":62.5,"quarantined":[0,19]})");
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.verb, Verb::kPlan);
  EXPECT_EQ(r.priority, Priority::kHigh);
  EXPECT_EQ(r.scenario, 3);
  EXPECT_DOUBLE_EQ(r.load_pct, 62.5);
  EXPECT_FALSE(r.load_files_s.has_value());
  EXPECT_EQ(r.quarantined, (std::vector<size_t>{0, 19}));
}

TEST(ParseRequest, PlanAbsoluteLoad) {
  const WireRequest r =
      request_ok(R"({"id":1,"verb":"plan","load":123.25})");
  ASSERT_TRUE(r.load_files_s.has_value());
  EXPECT_DOUBLE_EQ(*r.load_files_s, 123.25);
  EXPECT_EQ(r.scenario, 8);  // default
}

TEST(ParseRequest, PlanRejectsBothLoadForms) {
  const std::string error = request_fail(
      R"({"id":2,"verb":"plan","load":10,"load_pct":10})", 2);
  EXPECT_NE(error.find("not both"), std::string::npos);
}

TEST(ParseRequest, PlanRequiresALoad) {
  request_fail(R"({"id":3,"verb":"plan"})", 3);
}

TEST(ParseRequest, UnknownFieldRejectedByName) {
  const std::string error = request_fail(
      R"({"id":4,"verb":"plan","load_pct":10,"lod_pct":20})", 4);
  EXPECT_NE(error.find("lod_pct"), std::string::npos);
}

TEST(ParseRequest, FieldsAreScopedPerVerb) {
  // quarantined belongs to plan, not measure.
  const std::string error = request_fail(
      R"({"id":5,"verb":"measure","load_pct":10,"quarantined":[1]})", 5);
  EXPECT_NE(error.find("quarantined"), std::string::npos);
}

TEST(ParseRequest, VerbRequired) {
  request_fail(R"({"id":6})", 6);
  request_fail(R"({"id":6,"verb":"fly"})", 6);
}

TEST(ParseRequest, IdRecoveredFromInvalidRequest) {
  // Even though validation fails, the id is recovered for correlation.
  request_fail(R"({"id":99,"verb":"plan","scenario":12,"load_pct":10})", 99);
}

TEST(ParseRequest, ScenarioRangeChecked) {
  request_fail(R"({"id":1,"verb":"measure","scenario":0,"load_pct":10})", 1);
  request_fail(R"({"id":1,"verb":"measure","scenario":9,"load_pct":10})", 1);
  request_fail(R"({"id":1,"verb":"measure","scenario":1.5,"load_pct":10})", 1);
}

TEST(ParseRequest, PriorityValidated) {
  EXPECT_EQ(request_ok(R"({"id":1,"verb":"ping","priority":"low"})").priority,
            Priority::kLow);
  request_fail(R"({"id":1,"verb":"ping","priority":"urgent"})", 1);
}

TEST(ParseRequest, SweepDefaultsAndArrays) {
  const WireRequest empty = request_ok(R"({"id":1,"verb":"sweep"})");
  EXPECT_TRUE(empty.scenarios.empty());
  EXPECT_TRUE(empty.load_pcts.empty());
  const WireRequest r = request_ok(
      R"({"id":1,"verb":"sweep","scenarios":[1,8],"load_pcts":[25,75.5]})");
  EXPECT_EQ(r.scenarios, (std::vector<int>{1, 8}));
  EXPECT_EQ(r.load_pcts, (std::vector<double>{25.0, 75.5}));
  request_fail(R"({"id":1,"verb":"sweep","scenarios":[]})", 1);
  request_fail(R"({"id":1,"verb":"sweep","scenarios":[0]})", 1);
}

TEST(ParseRequest, InjectFieldsAndDefaults) {
  const WireRequest r = request_ok(R"({"id":1,"verb":"inject"})");
  EXPECT_EQ(r.fault, "fan-failure");
  EXPECT_EQ(r.defense, "supervisor");
  EXPECT_DOUBLE_EQ(r.load_pct, 60.0);
  EXPECT_DOUBLE_EQ(r.duration_s, 3600.0);
  const WireRequest s = request_ok(
      R"({"id":1,"verb":"inject","fault":"sensor-storm","defense":"none",)"
      R"("load_pct":40,"duration_s":600,"control_period_s":15})");
  EXPECT_EQ(s.fault, "sensor-storm");
  EXPECT_EQ(s.defense, "none");
  EXPECT_DOUBLE_EQ(s.duration_s, 600.0);
  request_fail(R"({"id":1,"verb":"inject","duration_s":-5})", 1);
}

TEST(ParseRequest, InjectDurationIsBoundedByOneSimulatedDay) {
  EXPECT_EQ(kMaxInjectDurationS, 86400.0);
  const WireRequest r =
      request_ok(R"({"id":1,"verb":"inject","duration_s":86400})");
  EXPECT_EQ(r.duration_s, kMaxInjectDurationS);
  for (const char* duration : {"86400.5", "1e6", "1e12"}) {
    EXPECT_EQ(request_fail(util::strf(
                               R"({"id":2,"verb":"inject","duration_s":%s})",
                               duration),
                           2),
              "\"duration_s\" must be at most 86400");
  }
}

TEST(ParseRequest, NonObjectAndBadIdRejected) {
  request_fail("[1,2,3]");
  request_fail(R"({"id":-1,"verb":"ping"})");
  request_fail(R"({"id":1.5,"verb":"ping"})");
  request_fail("not json at all");
}

TEST(ParseRequest, EncodeRequestRoundTrips) {
  WireRequest request;
  request.id = 42;
  request.verb = Verb::kPlan;
  request.priority = Priority::kLow;
  request.scenario = 5;
  request.load_pct = 37.5;
  request.quarantined = {2, 3};
  const WireRequest round = request_ok(encode_request(request));
  EXPECT_EQ(round.id, 42u);
  EXPECT_EQ(round.verb, Verb::kPlan);
  EXPECT_EQ(round.priority, Priority::kLow);
  EXPECT_EQ(round.scenario, 5);
  EXPECT_DOUBLE_EQ(round.load_pct, 37.5);
  EXPECT_EQ(round.quarantined, request.quarantined);
}

// --- responses ---

TEST(EncodeResponse, ErrorEnvelope) {
  const std::string line =
      encode_error(9, Verb::kPlan, kErrShedQueueFull, "full", 256);
  const JsonValue doc = parse_ok(line);
  EXPECT_DOUBLE_EQ(doc.find("id")->as_number(), 9.0);
  EXPECT_EQ(doc.find("verb")->as_string(), "plan");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error_code")->as_string(), "shed_queue_full");
  EXPECT_DOUBLE_EQ(doc.find("queue_depth")->as_number(), 256.0);
  // Without a depth the field is omitted entirely.
  const JsonValue bare =
      parse_ok(encode_error(9, Verb::kPing, kErrBadRequest, "bad"));
  EXPECT_EQ(bare.find("queue_depth"), nullptr);
}

TEST(EncodeResponse, PlanResponseCarriesTheFullAllocation) {
  core::SyntheticModelOptions options;
  options.machines = 12;
  options.seed = 3;
  const core::PlanEngine engine(core::make_synthetic_model(options));
  const double cap = engine.aggregates().total_capacity;
  const core::PlanResult result =
      engine.solve(core::PlanRequest(core::Scenario::by_number(7), 0.5 * cap));
  const std::string line = encode_plan_response(11, result);
  const JsonValue doc = parse_ok(line);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  const JsonValue* plan = doc.find("result")->find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->find("on")->items().size(), 12u);
  EXPECT_EQ(plan->find("loads")->items().size(), 12u);
  EXPECT_DOUBLE_EQ(doc.find("result")->find("shed_load")->as_number(), 0.0);
  // A request-level error becomes an invalid_argument error envelope.
  core::PlanResult bad;
  bad.error = "load is negative";
  const JsonValue err = parse_ok(encode_plan_response(12, bad));
  EXPECT_FALSE(err.find("ok")->as_bool());
  EXPECT_EQ(err.find("error_code")->as_string(), "invalid_argument");
}

TEST(EncodeResponse, PingResponseListsVerbsByBackend) {
  ServerInfo info;
  info.machines = 20;
  info.capacity_files_s = 800.0;
  info.queue_capacity = 256;
  info.workers = 4;
  info.sim_backed = false;
  const JsonValue model_backed = parse_ok(encode_ping_response(1, info));
  EXPECT_EQ(model_backed.find("result")->find("verbs")->items().size(), 4u);
  info.sim_backed = true;
  const JsonValue sim_backed = parse_ok(encode_ping_response(1, info));
  const JsonValue* verbs = sim_backed.find("result")->find("verbs");
  EXPECT_EQ(verbs->items().size(), 7u);
  // subscribe and health are served in both backing modes, so they are
  // always advertised (health last).
  EXPECT_EQ(verbs->items().back().as_string(), "health");
}

// --- subscribe + tracing (issue 9) ---

TEST(ParseRequest, SubscribeDefaultsAndFields) {
  const WireRequest defaults = request_ok(R"({"id":1,"verb":"subscribe"})");
  EXPECT_EQ(defaults.interval_ms, WireRequest::kDefaultTickIntervalMs);
  EXPECT_EQ(defaults.ticks, 0u);
  const WireRequest r = request_ok(
      R"({"id":2,"verb":"subscribe","interval_ms":250,"ticks":12})");
  EXPECT_EQ(r.verb, Verb::kSubscribe);
  EXPECT_EQ(r.interval_ms, 250u);
  EXPECT_EQ(r.ticks, 12u);
  // Out-of-range intervals parse fine: clamping is the SERVER's job (the
  // ack echoes the effective value), not the codec's.
  EXPECT_EQ(request_ok(R"({"id":3,"verb":"subscribe","interval_ms":1})")
                .interval_ms,
            1u);
}

TEST(ParseRequest, SubscribeRejectsMalformedPayloads) {
  const std::string zero =
      request_fail(R"({"id":4,"verb":"subscribe","interval_ms":0})", 4);
  EXPECT_NE(zero.find("interval_ms"), std::string::npos);
  request_fail(R"({"id":5,"verb":"subscribe","interval_ms":-100})", 5);
  request_fail(R"({"id":6,"verb":"subscribe","interval_ms":99.5})", 6);
  const std::string ticks =
      request_fail(R"({"id":7,"verb":"subscribe","ticks":-1})", 7);
  EXPECT_NE(ticks.find("ticks"), std::string::npos);
  request_fail(R"({"id":8,"verb":"subscribe","ticks":1.5})", 8);
  request_fail(R"({"id":9,"verb":"subscribe","interval_ms":"fast"})", 9);
}

TEST(ParseRequest, SubscribeWhitelistsItsOwnFieldsOnly) {
  // Plan fields on subscribe (and vice versa) fail by name — the per-verb
  // whitelist, not a silent default.
  const std::string scenario =
      request_fail(R"({"id":1,"verb":"subscribe","scenario":8})", 1);
  EXPECT_NE(scenario.find("scenario"), std::string::npos);
  request_fail(R"({"id":1,"verb":"subscribe","load_pct":50})", 1);
  request_fail(R"({"id":1,"verb":"subscribe","trace_id":1})", 1);
  const std::string interval =
      request_fail(R"({"id":1,"verb":"plan","load_pct":10,"interval_ms":5})", 1);
  EXPECT_NE(interval.find("interval_ms"), std::string::npos);
  request_fail(R"({"id":1,"verb":"ping","ticks":3})", 1);
}

TEST(ParseRequest, TraceIdOnPlanAndFleetplanOnly) {
  const WireRequest plain = request_ok(R"({"id":1,"verb":"plan","load_pct":10})");
  EXPECT_FALSE(plain.trace_id.has_value());
  const WireRequest traced = request_ok(
      R"({"id":2,"verb":"plan","load_pct":10,"trace_id":777})");
  ASSERT_TRUE(traced.trace_id.has_value());
  EXPECT_EQ(*traced.trace_id, 777u);
  const WireRequest fleet = request_ok(
      R"({"id":3,"verb":"fleetplan","load_pct":10,"trace_id":0})");
  ASSERT_TRUE(fleet.trace_id.has_value());
  EXPECT_EQ(*fleet.trace_id, 0u);

  request_fail(R"({"id":4,"verb":"plan","load_pct":10,"trace_id":-1})", 4);
  request_fail(R"({"id":5,"verb":"plan","load_pct":10,"trace_id":1.5})", 5);
  request_fail(R"({"id":6,"verb":"plan","load_pct":10,"trace_id":"abc"})", 6);
  const std::string scoped =
      request_fail(R"({"id":7,"verb":"measure","load_pct":10,"trace_id":1})", 7);
  EXPECT_NE(scoped.find("trace_id"), std::string::npos);
}

TEST(ParseRequest, SubscribeAndTraceIdRoundTripThroughEncode) {
  WireRequest sub;
  sub.id = 21;
  sub.verb = Verb::kSubscribe;
  sub.interval_ms = 500;
  sub.ticks = 4;
  const WireRequest sub_round = request_ok(encode_request(sub));
  EXPECT_EQ(sub_round.verb, Verb::kSubscribe);
  EXPECT_EQ(sub_round.interval_ms, 500u);
  EXPECT_EQ(sub_round.ticks, 4u);

  WireRequest traced;
  traced.id = 22;
  traced.verb = Verb::kPlan;
  traced.load_pct = 30.0;
  traced.trace_id = 99;
  const WireRequest traced_round = request_ok(encode_request(traced));
  ASSERT_TRUE(traced_round.trace_id.has_value());
  EXPECT_EQ(*traced_round.trace_id, 99u);
}

TEST(EncodeResponse, SubscribeAckEchoesClampedBudget) {
  const std::string line = encode_subscribe_response(31, 250, 12);
  const JsonValue doc = parse_ok(line);
  EXPECT_DOUBLE_EQ(doc.find("id")->as_number(), 31.0);
  EXPECT_EQ(doc.find("verb")->as_string(), "subscribe");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(doc.find("result")->find("interval_ms")->as_number(), 250.0);
  EXPECT_DOUBLE_EQ(doc.find("result")->find("ticks")->as_number(), 12.0);
}

TEST(EncodeResponse, TelemetryTickLeadsWithTheTelemetryVerb) {
  obs::MetricsDelta delta;
  delta.to_sequence = 5;
  delta.counters.emplace_back("service.requests", 42);
  delta.gauges.emplace_back("service.queue.depth", 3.0);
  obs::HistogramSnapshot h;
  h.count = 2;
  h.sum = 30.0;
  h.p50 = 15.0;
  h.p95 = 20.0;
  h.p99 = 20.0;
  delta.histograms.emplace_back("service.latency.plan_us", h);

  const std::string line = encode_telemetry_tick(7, 3, delta);
  // Responses lead with "id"; pushed ticks lead with "verb":"telemetry" so
  // one connection can split the two streams on the first key.
  EXPECT_EQ(line.rfind(R"({"verb":"telemetry")", 0), 0u) << line;
  const JsonValue doc = parse_ok(line);
  EXPECT_DOUBLE_EQ(doc.find("subscription")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.find("tick")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.find("seq")->as_number(), 5.0);
  EXPECT_EQ(doc.find("closing"), nullptr);
  EXPECT_DOUBLE_EQ(
      doc.find("counters")->find("service.requests")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(
      doc.find("gauges")->find("service.queue.depth")->as_number(), 3.0);
  const JsonValue* lat = doc.find("histograms")->find("service.latency.plan_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(lat->find("p95")->as_number(), 20.0);

  obs::MetricsDelta empty;
  const JsonValue closing = parse_ok(encode_telemetry_tick(7, 4, empty, true));
  EXPECT_TRUE(closing.find("closing")->as_bool());
  EXPECT_EQ(closing.find("counters")->members().size(), 0u);
}

TEST(EncodeResponse, TracedPlanResponseAppendsTheSpanTree) {
  core::SyntheticModelOptions options;
  options.machines = 8;
  options.seed = 5;
  const core::PlanEngine engine(core::make_synthetic_model(options));
  const double cap = engine.aggregates().total_capacity;
  const core::PlanResult result =
      engine.solve(core::PlanRequest(core::Scenario::by_number(8), 0.4 * cap));

  const std::string untraced = encode_plan_response(50, result);
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);

  obs::SpanContext spans;
  spans.reset(777);
  const int root = spans.begin("service.request");
  const int solve = spans.begin("engine.solve");
  spans.end(solve);
  const int shard = spans.open_slot("shard.engine.solve", root, /*detail=*/2);
  spans.slot_begin(shard);
  spans.slot_end(shard);
  spans.end(root);

  const std::string line = encode_plan_response(50, result, &spans);
  // The trace block is strictly appended: the untraced bytes are a prefix
  // (modulo the closing brace), preserving historical responses exactly.
  EXPECT_EQ(line.rfind(untraced.substr(0, untraced.size() - 1), 0), 0u);
  const JsonValue doc = parse_ok(line);
  const JsonValue* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_DOUBLE_EQ(trace->find("trace_id")->as_number(), 777.0);
  const JsonValue* arr = trace->find("spans");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items().size(), 3u);
  const JsonValue& req_span = arr->items()[0];
  EXPECT_EQ(req_span.find("name")->as_string(), "service.request");
  EXPECT_DOUBLE_EQ(req_span.find("parent")->as_number(), -1.0);
  EXPECT_EQ(req_span.find("shard"), nullptr);  // detail < 0 omits the key
  EXPECT_GE(req_span.find("dur_us")->as_number(), 0.0);
  const JsonValue& shard_span = arr->items()[2];
  EXPECT_EQ(shard_span.find("name")->as_string(), "shard.engine.solve");
  EXPECT_DOUBLE_EQ(shard_span.find("parent")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(shard_span.find("shard")->as_number(), 2.0);
}

// --- deadlines, health, shard failure domains (issue 10) ---

TEST(ParseRequest, DeadlineOnPlanAndFleetplan) {
  const WireRequest plan =
      request_ok(R"({"id":1,"verb":"plan","load_pct":10,"deadline_ms":250})");
  ASSERT_TRUE(plan.deadline_ms.has_value());
  EXPECT_EQ(*plan.deadline_ms, 250u);
  const WireRequest fleet = request_ok(
      R"({"id":2,"verb":"fleetplan","load_pct":10,"deadline_ms":1})");
  ASSERT_TRUE(fleet.deadline_ms.has_value());
  EXPECT_EQ(*fleet.deadline_ms, 1u);
  // No deadline field means no deadline — the historical behavior.
  EXPECT_FALSE(request_ok(R"({"id":3,"verb":"plan","load_pct":10})")
                   .deadline_ms.has_value());
}

TEST(ParseRequest, DeadlineMustBeAPositiveInteger) {
  const std::string error = request_fail(
      R"({"id":4,"verb":"plan","load_pct":10,"deadline_ms":0})", 4);
  EXPECT_NE(error.find("deadline_ms"), std::string::npos);
  request_fail(R"({"id":4,"verb":"plan","load_pct":10,"deadline_ms":-5})", 4);
  request_fail(R"({"id":4,"verb":"plan","load_pct":10,"deadline_ms":2.5})", 4);
  request_fail(R"({"id":4,"verb":"plan","load_pct":10,"deadline_ms":"9"})", 4);
}

TEST(ParseRequest, DeadlineScopedToPlanVerbs) {
  // Only plan/fleetplan queue for a worker, so only they take a
  // deadline; elsewhere the field is rejected by name like any stranger.
  const std::string error = request_fail(
      R"({"id":5,"verb":"measure","load_pct":10,"deadline_ms":100})", 5);
  EXPECT_NE(error.find("deadline_ms"), std::string::npos);
  request_fail(R"({"id":5,"verb":"ping","deadline_ms":100})", 5);
}

TEST(ParseRequest, DownShardsOnFleetplanOnly) {
  const WireRequest r = request_ok(
      R"({"id":6,"verb":"fleetplan","load_pct":10,"down_shards":[2,5]})");
  EXPECT_EQ(r.down_shards, (std::vector<size_t>{2, 5}));
  EXPECT_TRUE(request_ok(R"({"id":6,"verb":"fleetplan","load_pct":10})")
                  .down_shards.empty());
  const std::string error = request_fail(
      R"({"id":7,"verb":"plan","load_pct":10,"down_shards":[1]})", 7);
  EXPECT_NE(error.find("down_shards"), std::string::npos);
}

TEST(ParseRequest, DownShardsValidated) {
  request_fail(
      R"({"id":8,"verb":"fleetplan","load_pct":10,"down_shards":3})", 8);
  request_fail(
      R"({"id":8,"verb":"fleetplan","load_pct":10,"down_shards":[-1]})", 8);
  request_fail(
      R"({"id":8,"verb":"fleetplan","load_pct":10,"down_shards":[1.5]})", 8);
}

TEST(ParseRequest, HealthTakesNoPayloadFields) {
  EXPECT_EQ(request_ok(R"({"id":9,"verb":"health"})").verb, Verb::kHealth);
  const std::string error =
      request_fail(R"({"id":10,"verb":"health","scenario":8})", 10);
  EXPECT_NE(error.find("scenario"), std::string::npos);
}

TEST(EncodeRequest, DeadlineAndDownShardsRoundTrip) {
  WireRequest request;
  request.id = 11;
  request.verb = Verb::kFleetplan;
  request.load_pct = 40.0;
  request.down_shards = {2, 5};
  request.deadline_ms = 750;
  const WireRequest back = request_ok(encode_request(request));
  EXPECT_EQ(back.down_shards, (std::vector<size_t>{2, 5}));
  ASSERT_TRUE(back.deadline_ms.has_value());
  EXPECT_EQ(*back.deadline_ms, 750u);

  WireRequest plan;
  plan.id = 12;
  plan.verb = Verb::kPlan;
  plan.load_pct = 40.0;
  plan.deadline_ms = 90;
  ASSERT_TRUE(request_ok(encode_request(plan)).deadline_ms.has_value());
  EXPECT_EQ(*request_ok(encode_request(plan)).deadline_ms, 90u);

  WireRequest health;
  health.id = 13;
  health.verb = Verb::kHealth;
  EXPECT_EQ(request_ok(encode_request(health)).verb, Verb::kHealth);
}

TEST(EncodeResponse, PlanResponseEchoesDeadlineOnlyWhenSet) {
  core::SyntheticModelOptions options;
  options.machines = 8;
  options.seed = 5;
  const core::PlanEngine engine(core::make_synthetic_model(options));
  const core::PlanResult result = engine.solve(core::PlanRequest(
      core::Scenario::by_number(8), 0.4 * engine.aggregates().total_capacity));

  const std::string bare = encode_plan_response(20, result);
  EXPECT_EQ(bare.find("\"deadline_ms\""), std::string::npos);
  const std::string echoed =
      encode_plan_response(20, result, nullptr, uint64_t{300});
  // The echo is strictly appended, preserving historical bytes exactly.
  EXPECT_EQ(echoed.rfind(bare.substr(0, bare.size() - 1), 0), 0u);
  const JsonValue doc = parse_ok(echoed);
  EXPECT_DOUBLE_EQ(doc.find("deadline_ms")->as_number(), 300.0);
}

TEST(EncodeResponse, HealthResponseReportsQueueAndShards) {
  HealthInfo health;
  health.queue_depth = 3;
  health.queue_capacity = 256;
  health.workers = 4;
  health.draining = false;
  const JsonValue mono = parse_ok(encode_health_response(14, health));
  EXPECT_TRUE(mono.find("ok")->as_bool());
  EXPECT_EQ(mono.find("verb")->as_string(), "health");
  const JsonValue* result = mono.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_DOUBLE_EQ(result->find("queue_depth")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(result->find("queue_capacity")->as_number(), 256.0);
  EXPECT_FALSE(result->find("draining")->as_bool());
  // A monolithic server has no shard table at all.
  EXPECT_EQ(result->find("shards"), nullptr);

  health.draining = true;
  health.shard_status = {"ok", "degraded", "down"};
  const JsonValue fleet = parse_ok(encode_health_response(14, health));
  const JsonValue* shards = fleet.find("result")->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 3u);
  EXPECT_DOUBLE_EQ(shards->items()[2].find("shard")->as_number(), 2.0);
  EXPECT_EQ(shards->items()[2].find("status")->as_string(), "down");
  EXPECT_TRUE(fleet.find("result")->find("draining")->as_bool());
}

TEST(ErrorCodes, DeadlineExceededIsMachineReadable) {
  const JsonValue doc = parse_ok(
      encode_error(15, Verb::kPlan, kErrDeadlineExceeded,
                   "deadline of 10 ms expired after 25.0 ms in the queue"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error_code")->as_string(), "deadline_exceeded");
  EXPECT_NE(doc.find("error")->as_string().find("expired"), std::string::npos);
}

}  // namespace
}  // namespace coolopt::service
