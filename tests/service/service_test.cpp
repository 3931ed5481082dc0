// PlanningService integration: real sockets, concurrent clients, and the
// central contract — the bytes a client receives are EXACTLY the bytes
// wire.h encodes for the equivalent direct in-process engine call, at any
// worker count. Also pins admission control (queue-full / priority /
// drain shedding) using the pause_dispatch test seam, which makes queue
// depths deterministic.
#include "service/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/synthetic.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/wire.h"
#include "util/strings.h"

namespace coolopt::service {
namespace {

core::SharedRoomModel test_model(size_t machines = 20) {
  core::SyntheticModelOptions options;
  options.machines = machines;
  options.seed = 7;
  return core::share_model(core::make_synthetic_model(options));
}

ServiceConfig model_config(size_t machines = 20) {
  ServiceConfig config;
  config.model = test_model(machines);
  return config;
}

/// The request the concurrency tests send for point `i`, high priority so
/// nothing sheds under load.
WireRequest plan_point(uint64_t id, size_t i) {
  WireRequest request;
  request.id = id;
  request.verb = Verb::kPlan;
  request.priority = Priority::kHigh;
  request.scenario = (i % 2 == 0) ? 7 : 5;
  request.load_pct = 2.0 + static_cast<double>(i % 45) * 2.0;
  if (i % 7 == 0) request.quarantined = {0, i % 20};
  return request;
}

/// What the service must answer for `request`: a direct engine call,
/// encoded with the same functions — including the %.12g round-trip
/// through the wire (the server plans from the *parsed* request).
std::string expected_plan_bytes(PlanningService& server,
                                const WireRequest& request) {
  WireRequest parsed;
  std::string error;
  EXPECT_TRUE(parse_request(encode_request(request), parsed, error)) << error;
  const double load =
      parsed.load_pct / 100.0 * server.info().capacity_files_s;
  const core::PlanRequest plan_request(
      core::Scenario::by_number(parsed.scenario), load, parsed.quarantined);
  try {
    return encode_plan_response(parsed.id,
                                server.plan_engine()->solve(plan_request));
  } catch (const std::invalid_argument& e) {
    return encode_error(parsed.id, Verb::kPlan, kErrInvalidArgument, e.what());
  }
}

TEST(PlanningService, PingEchoesServerInfoBytes) {
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()))
      << client.last_error();
  const auto response = client.call(R"({"id":3,"verb":"ping"})");
  ASSERT_TRUE(response.has_value()) << client.last_error();
  EXPECT_EQ(*response, encode_ping_response(3, server.info()));
  server.stop();
}

TEST(PlanningService, PlanMatchesDirectEngineCallByteForByte) {
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (size_t i = 0; i < 10; ++i) {
    const WireRequest request = plan_point(i, i * 3);
    const auto response = client.call(encode_request(request));
    ASSERT_TRUE(response.has_value()) << client.last_error();
    EXPECT_EQ(*response, expected_plan_bytes(server, request));
  }
  server.stop();
}

/// N concurrent clients, many pipelined requests each, at worker counts
/// 1/2/8: every response must be byte-identical to the direct call. This
/// is the tentpole determinism guarantee under real socket concurrency.
TEST(PlanningService, ConcurrentClientsAreBitForBitDeterministic) {
  for (const size_t workers : {1u, 2u, 8u}) {
    ServiceConfig config = model_config();
    config.workers = workers;
    PlanningService server(std::move(config));
    server.start();

    constexpr size_t kClients = 4;
    constexpr size_t kPerClient = 40;
    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ServiceClient client;
        if (!client.connect("127.0.0.1", server.port())) {
          failures.fetch_add(1);
          return;
        }
        // Pipeline everything, then read everything; responses may come
        // back out of order, so correlate by id (== request index here).
        std::vector<std::string> expected(kPerClient);
        for (size_t i = 0; i < kPerClient; ++i) {
          const WireRequest request = plan_point(i, c * 131 + i);
          expected[i] = expected_plan_bytes(server, request);
          if (!client.send_line(encode_request(request))) {
            failures.fetch_add(1);
            return;
          }
        }
        for (size_t i = 0; i < kPerClient; ++i) {
          const auto line = client.recv_line();
          if (!line.has_value()) {
            failures.fetch_add(1);
            return;
          }
          JsonValue doc;
          std::string error;
          if (!parse_json(*line, doc, error) || doc.find("id") == nullptr) {
            mismatches.fetch_add(1);
            continue;
          }
          const size_t id =
              static_cast<size_t>(doc.find("id")->as_number());
          if (id >= kPerClient || *line != expected[id]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0u) << "workers=" << workers;
    EXPECT_EQ(mismatches.load(), 0u) << "workers=" << workers;
    const auto stats = server.stats();
    EXPECT_EQ(stats.admitted, kClients * kPerClient);
    EXPECT_EQ(stats.shed, 0u);
    server.stop();
  }
}

/// An admission is counted before its response can arrive: clients
/// pipeline plan requests, and as each response arrives the responses
/// received so far, across every client, must not exceed stats().admitted.
/// A count taken after the push races the worker that answers the job.
/// The registry counter reads what the Stats field reads.
TEST(PlanningService, AdmissionIsCountedBeforeItsResponseArrives) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  ServiceConfig config = model_config();
  config.workers = 4;
  PlanningService server(std::move(config));
  server.start();

  // Rounds of 20 pipelined requests per client keep at most 160 in flight,
  // within the queue's capacity, so nothing sheds.
  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 40;
  constexpr size_t kBatch = 20;
  std::atomic<uint64_t> received{0};
  std::atomic<size_t> short_reads{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        failures.fetch_add(1);
        return;
      }
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kBatch; ++i) {
          const WireRequest request = plan_point(i, c * 131 + round + i);
          if (!client.send_line(encode_request(request))) {
            failures.fetch_add(1);
            return;
          }
        }
        for (size_t i = 0; i < kBatch; ++i) {
          if (!client.recv_line().has_value()) {
            failures.fetch_add(1);
            return;
          }
          const uint64_t answered = received.fetch_add(1) + 1;
          if (server.stats().admitted < answered) short_reads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(short_reads.load(), 0u);
  EXPECT_EQ(server.stats().admitted, kClients * kRounds * kBatch);
  EXPECT_EQ(server.stats().shed, 0u);
  EXPECT_EQ(registry.counter("service.requests.admitted").value(),
            kClients * kRounds * kBatch);
  server.stop();
}

TEST(PlanningService, MalformedAndUnknownRequestsAnswerBadRequest) {
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  auto expect_code = [&](const std::string& line, const std::string& code,
                         double id) {
    const auto response = client.call(line);
    ASSERT_TRUE(response.has_value()) << client.last_error();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parse_json(*response, doc, error)) << *response;
    ASSERT_NE(doc.find("error_code"), nullptr) << *response;
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("error_code")->as_string(), code) << *response;
    EXPECT_DOUBLE_EQ(doc.find("id")->as_number(), id);
  };

  expect_code("this is not json", kErrBadRequest, 0);
  // Well-formed JSON with a bad field still correlates by id.
  expect_code(R"({"id":41,"verb":"plan","load_pct":10,"qux":1})",
              kErrBadRequest, 41);
  // Model-backed server: the simulator verbs are explicit non-support.
  expect_code(R"({"id":42,"verb":"measure","load_pct":10})",
              kErrUnsupportedVerb, 42);
  expect_code(R"({"id":43,"verb":"sweep"})", kErrUnsupportedVerb, 43);
  // Over-capacity plan load: engine invalid_argument surfaces as a typed
  // error response on the same connection.
  expect_code(R"({"id":44,"verb":"plan","load_pct":250})",
              kErrInvalidArgument, 44);
  EXPECT_EQ(server.stats().bad_requests, 2u);
  server.stop();
}

/// Deterministic shed behavior via the pause seam: with dispatch paused,
/// requests pile up to exact depths, so each admission verdict is forced.
TEST(PlanningService, AdmissionShedsWithExplicitReasons) {
  ServiceConfig config = model_config();
  config.queue_capacity = 8;  // normal limit 7, low limit 4
  PlanningService server(std::move(config));
  server.start();
  server.pause_dispatch(true);
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  auto send_priority = [&](uint64_t id, const char* priority) {
    return util::strf(
        R"({"id":%llu,"verb":"plan","priority":"%s","load_pct":50})",
        static_cast<unsigned long long>(id), priority);
  };

  // Fill to the low-priority share (4): all admitted.
  for (uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(client.send_line(send_priority(id, "low")));
  }
  // Requests are admitted asynchronously; wait until the queue holds them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 4u);

  auto expect_shed = [&](const std::string& line, const std::string& code) {
    const auto response = client.call(line);
    ASSERT_TRUE(response.has_value()) << client.last_error();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parse_json(*response, doc, error)) << *response;
    ASSERT_NE(doc.find("error_code"), nullptr) << *response;
    EXPECT_EQ(doc.find("error_code")->as_string(), code) << *response;
    ASSERT_NE(doc.find("queue_depth"), nullptr);
  };

  // Depth 4 == the low share: the next low request sheds by priority...
  expect_shed(send_priority(100, "low"), kErrShedPriority);
  // ...while normal and high still get through. Fill depth to 7.
  for (uint64_t id = 4; id < 7; ++id) {
    ASSERT_TRUE(client.send_line(send_priority(id, "normal")));
  }
  while (server.stats().admitted < 7 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 7u);
  // Depth 7 == the normal share: normal sheds, high is still admitted.
  expect_shed(send_priority(101, "normal"), kErrShedPriority);
  ASSERT_TRUE(client.send_line(send_priority(7, "high")));
  while (server.stats().admitted < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 8u);
  // Depth 8 == capacity: even high sheds, with the queue-full code.
  expect_shed(send_priority(102, "high"), kErrShedQueueFull);
  EXPECT_EQ(server.stats().shed, 3u);

  // Unpause: all eight admitted requests must still answer (correlate by
  // id; responses may arrive in any order across worker threads).
  server.pause_dispatch(false);
  std::map<uint64_t, std::string> responses;
  for (int i = 0; i < 8; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parse_json(*line, doc, error));
    responses[static_cast<uint64_t>(doc.find("id")->as_number())] = *line;
  }
  EXPECT_EQ(responses.size(), 8u);
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(responses.count(id)) << "missing response for id " << id;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parse_json(responses[id], doc, error));
    EXPECT_TRUE(doc.find("ok")->as_bool());
  }
  server.stop();
}

/// stop() during a paused backlog: the drain overrides the pause, every
/// admitted request still gets its response before connections close.
TEST(PlanningService, GracefulDrainAnswersTheBacklog) {
  ServiceConfig config = model_config();
  config.queue_capacity = 16;
  PlanningService server(std::move(config));
  server.pause_dispatch(true);
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(client.send_line(util::strf(
        R"({"id":%llu,"verb":"plan","load_pct":30})",
        static_cast<unsigned long long>(id))));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 5u);

  std::thread stopper([&] { server.stop(); });
  std::map<uint64_t, bool> answered;
  for (int i = 0; i < 5; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parse_json(*line, doc, error));
    EXPECT_TRUE(doc.find("ok")->as_bool());
    answered[static_cast<uint64_t>(doc.find("id")->as_number())] = true;
  }
  EXPECT_EQ(answered.size(), 5u);
  // After the drain the server closes the connection.
  EXPECT_FALSE(client.recv_line().has_value());
  stopper.join();
}

TEST(PlanningService, ConnectionLimitAnswersThenCloses) {
  ServiceConfig config = model_config();
  config.max_connections = 1;
  PlanningService server(std::move(config));
  server.start();
  ServiceClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(first.call(R"({"id":1,"verb":"ping"})").has_value());
  ServiceClient second;
  ASSERT_TRUE(second.connect("127.0.0.1", server.port()));
  const auto response = second.recv_line();
  ASSERT_TRUE(response.has_value());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(*response, doc, error));
  EXPECT_EQ(doc.find("error_code")->as_string(), kErrTooManyConnections);
  EXPECT_FALSE(second.recv_line().has_value());  // server closed it
  // The surviving connection still works.
  EXPECT_TRUE(first.call(R"({"id":2,"verb":"ping"})").has_value());
  server.stop();
}

/// Simulator-backed mode: measure over the socket matches the direct
/// EvalEngine call byte-for-byte (small room + fast profiling preset to
/// keep the campaign cheap).
TEST(PlanningService, SimBackedMeasureMatchesDirectCall) {
  ServiceConfig config;
  config.eval.room.num_servers = 6;
  config.eval.room.seed = 81;
  PlanningService server(std::move(config));
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto response =
      client.call(R"({"id":5,"verb":"measure","scenario":7,"load_pct":40})");
  ASSERT_TRUE(response.has_value()) << client.last_error();
  const control::EvalPoint direct =
      server.eval_engine()->measure(core::Scenario::by_number(7), 40.0);
  EXPECT_EQ(*response, encode_measure_response(5, direct));
  server.stop();
}

/// An inject load outside 0-100% is the campaign's invalid_argument, not an
/// internal_error; 200% is rejected before the profiling pass runs.
TEST(PlanningService, InjectLoadOutsideCapacityIsInvalidArgument) {
  ServiceConfig config;
  config.eval.room.num_servers = 6;
  config.eval.room.seed = 81;
  PlanningService server(std::move(config));
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (const char* load : {"-10", "200"}) {
    const auto response = client.call(util::strf(
        R"({"id":6,"verb":"inject","load_pct":%s,"duration_s":60})", load));
    ASSERT_TRUE(response.has_value()) << client.last_error();
    EXPECT_EQ(*response,
              encode_error(6, Verb::kInject, kErrInvalidArgument,
                           "run_fault_campaign: demand fraction must be in "
                           "[0, 1]"))
        << load;
  }
  server.stop();
}

// --- telemetry streaming + request tracing (issue 9) ---

JsonValue must_parse(const std::string& line) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(line, doc, error)) << error << ": " << line;
  return doc;
}

bool is_telemetry_line(const std::string& line) {
  // Ticks lead with "verb":"telemetry"; responses lead with "id".
  return line.rfind(R"({"verb":"telemetry")", 0) == 0;
}

TEST(PlanningService, SubscribeStreamsBoundedDeltaTicks) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  const auto ack = client.call(
      R"({"id":9,"verb":"subscribe","interval_ms":100,"ticks":3})");
  ASSERT_TRUE(ack.has_value()) << client.last_error();
  const JsonValue ack_doc = must_parse(*ack);
  EXPECT_TRUE(ack_doc.find("ok")->as_bool()) << *ack;
  EXPECT_DOUBLE_EQ(ack_doc.find("id")->as_number(), 9.0);
  EXPECT_DOUBLE_EQ(ack_doc.find("result")->find("interval_ms")->as_number(),
                   100.0);
  EXPECT_DOUBLE_EQ(ack_doc.find("result")->find("ticks")->as_number(), 3.0);

  uint64_t prev_seq = 0;
  size_t non_empty = 0;
  for (uint64_t n = 1; n <= 3; ++n) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    ASSERT_TRUE(is_telemetry_line(*line)) << *line;
    const JsonValue tick = must_parse(*line);
    EXPECT_DOUBLE_EQ(tick.find("subscription")->as_number(), 9.0);
    EXPECT_DOUBLE_EQ(tick.find("tick")->as_number(),
                     static_cast<double>(n));
    const uint64_t seq =
        static_cast<uint64_t>(tick.find("seq")->as_number());
    EXPECT_GT(seq, prev_seq);  // delta basis advances every delivered tick
    prev_seq = seq;
    if (tick.find("counters")->members().size() > 0) ++non_empty;
  }
  // Tick 1 is the full baseline; the broadcaster's own books
  // (service.telemetry.ticks) keep later deltas non-empty.
  EXPECT_GE(non_empty, 2u);

  // The budget is spent: the stream ends but the CONNECTION survives, and
  // other verbs keep working on it.
  const auto ping = client.call(R"({"id":10,"verb":"ping"})");
  ASSERT_TRUE(ping.has_value()) << client.last_error();
  EXPECT_EQ(*ping, encode_ping_response(10, server.info()));

  const PlanningService::Stats stats = server.stats();
  EXPECT_EQ(stats.subscriptions, 1u);
  EXPECT_GE(stats.telemetry_ticks, 3u);
  server.stop();
}

TEST(PlanningService, SubscribeClampsTheRequestedInterval) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto low = client.call(
      R"({"id":1,"verb":"subscribe","interval_ms":1,"ticks":1})");
  ASSERT_TRUE(low.has_value());
  EXPECT_DOUBLE_EQ(
      must_parse(*low).find("result")->find("interval_ms")->as_number(),
      static_cast<double>(kMinTickIntervalMs));
  const auto high = client.call(
      R"({"id":2,"verb":"subscribe","interval_ms":86400000,"ticks":1})");
  ASSERT_TRUE(high.has_value());
  EXPECT_DOUBLE_EQ(
      must_parse(*high).find("result")->find("interval_ms")->as_number(),
      static_cast<double>(kMaxTickIntervalMs));
  server.stop();
}

/// One connection runs a subscription AND planning traffic: responses stay
/// byte-identical to direct engine calls while ticks interleave freely.
TEST(PlanningService, SubscriptionInterleavesWithPlansOnOneConnection) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  const auto ack = client.call(
      R"({"id":1000,"verb":"subscribe","interval_ms":100})");
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(must_parse(*ack).find("ok")->as_bool()) << *ack;

  constexpr size_t kPlans = 8;
  std::map<uint64_t, std::string> expected;
  for (size_t i = 0; i < kPlans; ++i) {
    const WireRequest request = plan_point(i, i * 5);
    expected[request.id] = expected_plan_bytes(server, request);
    ASSERT_TRUE(client.send_line(encode_request(request)));
  }
  size_t responses = 0;
  size_t ticks = 0;
  while (responses < kPlans) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    if (is_telemetry_line(*line)) {
      ++ticks;
      continue;
    }
    const JsonValue doc = must_parse(*line);
    const uint64_t id = static_cast<uint64_t>(doc.find("id")->as_number());
    ASSERT_TRUE(expected.count(id) > 0) << *line;
    EXPECT_EQ(*line, expected[id]);
    ++responses;
  }
  // Keep reading until at least two ticks prove the stream kept running
  // through the planning burst.
  while (ticks < 2) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    if (is_telemetry_line(*line)) ++ticks;
  }
  server.stop();
}

TEST(PlanningService, TracedPlanAppendsServiceAndEngineSpans) {
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  WireRequest request = plan_point(77, 4);
  const std::string untraced_bytes = expected_plan_bytes(server, request);
  request.trace_id = 31337;
  const auto response = client.call(encode_request(request));
  ASSERT_TRUE(response.has_value()) << client.last_error();
  // The traced response is the untraced bytes plus an appended trace block
  // — tracing changes nothing about the result payload.
  ASSERT_GT(response->size(), untraced_bytes.size());
  EXPECT_EQ(response->substr(0, untraced_bytes.size() - 1),
            untraced_bytes.substr(0, untraced_bytes.size() - 1));

  const JsonValue doc = must_parse(*response);
  const JsonValue* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr) << *response;
  EXPECT_DOUBLE_EQ(trace->find("trace_id")->as_number(), 31337.0);
  const auto& spans = trace->find("spans")->items();
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans[0].find("name")->as_string(), "service.request");
  EXPECT_DOUBLE_EQ(spans[0].find("parent")->as_number(), -1.0);
  EXPECT_EQ(spans[1].find("name")->as_string(), "engine.solve");
  EXPECT_DOUBLE_EQ(spans[1].find("parent")->as_number(), 0.0);
  EXPECT_GE(spans[0].find("dur_us")->as_number(),
            spans[1].find("dur_us")->as_number());

  // Untraced requests on the same server still answer the historical bytes.
  request.trace_id.reset();
  const auto plain = client.call(encode_request(request));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, untraced_bytes);
  server.stop();
}

TEST(PlanningService, TracedFleetplanCarriesPerShardSpans) {
  ServiceConfig config = model_config();
  config.fleet_shards = 3;
  PlanningService server(std::move(config));
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  const auto response = client.call(
      R"({"id":8,"verb":"fleetplan","load_pct":35,"trace_id":5})");
  ASSERT_TRUE(response.has_value()) << client.last_error();
  const JsonValue doc = must_parse(*response);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << *response;
  const JsonValue* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr) << *response;
  const auto& spans = trace->find("spans")->items();

  std::vector<double> shards_seen;
  int fleet_index = -1;
  bool saw_split = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].find("name")->as_string();
    if (name == "fleet.solve") fleet_index = static_cast<int>(i);
    if (name == "fleet.split") saw_split = true;
    if (name == "shard.engine.solve") {
      // Shard spans hang off fleet.solve and carry their shard index.
      EXPECT_DOUBLE_EQ(spans[i].find("parent")->as_number(),
                       static_cast<double>(fleet_index));
      shards_seen.push_back(spans[i].find("shard")->as_number());
    }
  }
  EXPECT_EQ(spans[0].find("name")->as_string(), "service.request");
  ASSERT_NE(fleet_index, -1);
  EXPECT_TRUE(saw_split);
  EXPECT_EQ(shards_seen, (std::vector<double>{0.0, 1.0, 2.0}));
  server.stop();
}

/// SIGTERM drain with a live subscription: the stream ends with a closing
/// tick, then the connection closes.
TEST(PlanningService, DrainWritesAClosingTickToSubscribers) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto ack = client.call(
      R"({"id":44,"verb":"subscribe","interval_ms":100})");
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(must_parse(*ack).find("ok")->as_bool());
  // Wait for proof the stream is live before draining.
  const auto first = client.recv_line();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(is_telemetry_line(*first));

  std::thread stopper([&] { server.stop(); });
  bool saw_closing = false;
  for (;;) {
    const auto line = client.recv_line();
    if (!line.has_value()) break;  // connection closed after the drain
    if (!is_telemetry_line(*line)) continue;
    const JsonValue tick = must_parse(*line);
    const JsonValue* closing = tick.find("closing");
    if (closing != nullptr && closing->as_bool()) {
      EXPECT_DOUBLE_EQ(tick.find("subscription")->as_number(), 44.0);
      saw_closing = true;
    }
  }
  stopper.join();
  EXPECT_TRUE(saw_closing);
}

// --- deadlines, timeouts, drain races (issue 10) ---

TEST(PlanningService, ExpiredDeadlineIsShedAtDispatchLiveOneServed) {
  ServiceConfig config = model_config();
  PlanningService server(std::move(config));
  server.pause_dispatch(true);  // hold the queue so the deadline can lapse
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // One request that will expire while paused, one with no deadline.
  ASSERT_TRUE(client.send_line(
      R"({"id":1,"verb":"plan","load_pct":30,"deadline_ms":10})"));
  ASSERT_TRUE(client.send_line(R"({"id":2,"verb":"plan","load_pct":30})"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.pause_dispatch(false);

  std::map<uint64_t, JsonValue> responses;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    JsonValue doc = must_parse(*line);
    responses[static_cast<uint64_t>(doc.find("id")->as_number())] =
        std::move(doc);
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[1].find("ok")->as_bool());
  EXPECT_EQ(responses[1].find("error_code")->as_string(),
            kErrDeadlineExceeded);
  EXPECT_TRUE(responses[2].find("ok")->as_bool());
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  server.stop();
}

TEST(PlanningService, GenerousDeadlineIsEchoedInTheResponse) {
  PlanningService server(model_config());
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto response = client.call(
      R"({"id":7,"verb":"plan","load_pct":30,"deadline_ms":60000})");
  ASSERT_TRUE(response.has_value()) << client.last_error();
  const JsonValue doc = must_parse(*response);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  ASSERT_NE(doc.find("deadline_ms"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("deadline_ms")->as_number(), 60000.0);
  server.stop();
}

/// Satellite: SIGTERM (-> stop()) racing a queue of mixed expired/live
/// requests. Every admitted request is answered exactly once — expired
/// ones with deadline_exceeded, live ones with their plan — and the
/// subscriber still gets its closing tick.
TEST(PlanningService, DrainRacingDeadlineExpiryAnswersEachExactlyOnce) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  ServiceConfig config = model_config();
  config.queue_capacity = 16;
  PlanningService server(std::move(config));
  server.pause_dispatch(true);
  server.start();

  ServiceClient subscriber;
  ASSERT_TRUE(subscriber.connect("127.0.0.1", server.port()));
  const auto ack = subscriber.call(
      R"({"id":90,"verb":"subscribe","interval_ms":100})");
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(must_parse(*ack).find("ok")->as_bool());

  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (uint64_t id = 0; id < 8; ++id) {
    const bool expiring = id < 4;
    ASSERT_TRUE(client.send_line(util::strf(
        expiring ? R"({"id":%llu,"verb":"plan","load_pct":30,"deadline_ms":5})"
                 : R"({"id":%llu,"verb":"plan","load_pct":30})",
        static_cast<unsigned long long>(id))));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 8u);
  // Let the deadlined half lapse, then drain while the queue is mixed.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { server.stop(); });

  std::map<uint64_t, int> answers;
  for (int i = 0; i < 8; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    const JsonValue doc = must_parse(*line);
    const uint64_t id = static_cast<uint64_t>(doc.find("id")->as_number());
    ++answers[id];
    if (id < 4) {
      EXPECT_FALSE(doc.find("ok")->as_bool());
      EXPECT_EQ(doc.find("error_code")->as_string(), kErrDeadlineExceeded);
    } else {
      EXPECT_TRUE(doc.find("ok")->as_bool());
    }
  }
  EXPECT_FALSE(client.recv_line().has_value());  // exactly once, then EOF
  ASSERT_EQ(answers.size(), 8u);
  for (const auto& [id, count] : answers) EXPECT_EQ(count, 1) << id;

  bool saw_closing = false;
  for (;;) {
    const auto line = subscriber.recv_line();
    if (!line.has_value()) break;
    if (!is_telemetry_line(*line)) continue;
    const JsonValue tick = must_parse(*line);
    const JsonValue* closing = tick.find("closing");
    saw_closing = saw_closing ||
                  (closing != nullptr && closing->as_bool());
  }
  stopper.join();
  EXPECT_TRUE(saw_closing);
  EXPECT_EQ(server.stats().deadline_expired, 4u);
}

// --- admission under concurrency ---

/// The priority share is checked under the queue's lock together with the
/// push: four connections racing eight `normal` plans each into a paused
/// capacity-8 queue admit exactly the normal share (7) — never more — and
/// every other request sheds by priority at the depth it saw. Repeated so
/// a check-then-push window would show.
TEST(PlanningService, ConcurrentReadersNeverOvershootThePriorityShare) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  for (int round = 0; round < 20; ++round) {
    ServiceConfig config = model_config();
    config.queue_capacity = 8;  // normal share 7
    PlanningService server(std::move(config));
    server.start();
    server.pause_dispatch(true);

    std::vector<ServiceClient> clients(kClients);
    for (ServiceClient& client : clients) {
      ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    }
    std::atomic<size_t> ready{0};
    std::vector<std::thread> senders;
    for (size_t c = 0; c < kClients; ++c) {
      senders.emplace_back([&, c] {
        ready.fetch_add(1);
        while (ready.load() < kClients) std::this_thread::yield();
        for (size_t i = 0; i < kPerClient; ++i) {
          EXPECT_TRUE(clients[c].send_line(util::strf(
              R"({"id":%zu,"verb":"plan","priority":"normal","load_pct":50})",
              c * kPerClient + i)));
        }
      });
    }
    for (std::thread& t : senders) t.join();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    auto settled = [&] {
      const auto stats = server.stats();
      return stats.admitted + stats.shed;
    };
    while (settled() < kClients * kPerClient &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.stats().admitted, 7u) << "round " << round;
    ASSERT_EQ(server.stats().shed, 25u) << "round " << round;

    server.pause_dispatch(false);
    size_t ok = 0;
    size_t shed_priority = 0;
    for (ServiceClient& client : clients) {
      for (size_t i = 0; i < kPerClient; ++i) {
        const auto line = client.recv_line();
        ASSERT_TRUE(line.has_value()) << client.last_error();
        const JsonValue doc = must_parse(*line);
        if (doc.find("ok")->as_bool()) {
          ++ok;
          continue;
        }
        EXPECT_EQ(doc.find("error_code")->as_string(), kErrShedPriority);
        EXPECT_DOUBLE_EQ(doc.find("queue_depth")->as_number(), 7.0);
        ++shed_priority;
      }
    }
    EXPECT_EQ(ok, 7u) << "round " << round;
    EXPECT_EQ(shed_priority, 25u) << "round " << round;
    server.stop();
  }
}

/// A pause taken after start(), while the workers sit idle inside the
/// queue's pop, holds every later admission: none leaks to a worker that
/// was already waiting.
TEST(PlanningService, LatePauseHoldsEveryAdmittedRequest) {
  constexpr uint64_t kRequests = 5;
  ServiceConfig config = model_config();
  config.workers = 2;
  PlanningService server(std::move(config));
  server.start();
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // ping is served by a worker: once it answers, the workers are idle.
  ASSERT_TRUE(client.call(R"({"id":100,"verb":"ping"})").has_value());
  server.pause_dispatch(true);
  for (uint64_t id = 0; id < kRequests; ++id) {
    ASSERT_TRUE(client.send_line(util::strf(
        R"({"id":%llu,"verb":"plan","load_pct":30})",
        static_cast<unsigned long long>(id))));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < kRequests + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, kRequests + 1);  // + the ping
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ServiceClient probe;
  ASSERT_TRUE(probe.connect("127.0.0.1", server.port()));
  const auto health = probe.call(R"({"id":9,"verb":"health"})");
  ASSERT_TRUE(health.has_value()) << probe.last_error();
  EXPECT_DOUBLE_EQ(
      must_parse(*health).find("result")->find("queue_depth")->as_number(),
      static_cast<double>(kRequests));

  server.pause_dispatch(false);
  for (uint64_t i = 0; i < kRequests; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << client.last_error();
    EXPECT_TRUE(must_parse(*line).find("ok")->as_bool());
  }
  server.stop();
}

// --- the service's books ---

struct StatMetric {
  const char* metric;
  uint64_t PlanningService::Stats::*field;
};

constexpr StatMetric kStatMetrics[] = {
    {"service.requests.admitted", &PlanningService::Stats::admitted},
    {"service.requests.shed", &PlanningService::Stats::shed},
    {"service.requests.rejected", &PlanningService::Stats::bad_requests},
    {"service.telemetry.subscribed", &PlanningService::Stats::subscriptions},
    {"service.telemetry.ticks", &PlanningService::Stats::telemetry_ticks},
    {"service.telemetry.dropped_ticks", &PlanningService::Stats::dropped_ticks},
    {"service.deadline.expired", &PlanningService::Stats::deadline_expired},
};
static_assert((std::size(kStatMetrics) + 1) * sizeof(uint64_t) ==
                  sizeof(PlanningService::Stats),
              "every Stats counter has a row (plus queue_high_water)");

/// After stop(): expects every Stats counter to equal its registry counter
/// and the high-water mark its gauge; returns the snapshot.
PlanningService::Stats expect_stats_match_registry(
    const PlanningService& server, obs::MetricsRegistry& registry) {
  const PlanningService::Stats stats = server.stats();
  for (const StatMetric& row : kStatMetrics) {
    EXPECT_EQ(stats.*row.field, registry.counter(row.metric).value())
        << row.metric;
  }
  EXPECT_EQ(static_cast<double>(stats.queue_high_water),
            registry.gauge("service.queue.high_water").value());
  return stats;
}

/// Polls until `done` holds, for at most five seconds.
template <typename Done>
void wait_for(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string error_code_of(const std::optional<std::string>& line) {
  if (!line.has_value()) return "(no response)";
  const JsonValue doc = must_parse(*line);
  const JsonValue* code = doc.find("error_code");
  return code != nullptr ? code->as_string() : *line;
}

/// This process's virtual size (VmSize in /proc/self/status), in kB.
size_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return static_cast<size_t>(std::strtoull(line.c_str() + 7, nullptr, 10));
    }
  }
  return 0;
}

/// A daemon serves clients that come and go for as long as it runs: each
/// closed connection must give back its reader thread (a stack of several
/// MB) and leave the live-connection gauge.
TEST(PlanningService, ClosedConnectionsAreReleased) {
  // A reader that starts before its predecessor has exited can make malloc
  // open a fresh 64 MB arena: allocator policy, not a leak, and enough to
  // blur the bound below. Pin new threads to the arenas that exist.
  mallopt(M_ARENA_MAX, 1);
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  PlanningService server(model_config());
  server.start();
  const auto live = [&] {
    return registry.gauge("service.connections").value();
  };
  const auto cycle = [&] {
    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.call(R"({"id":1,"verb":"ping"})").has_value())
        << client.last_error();
  };
  // The first batch lets one-time growth settle: the first thread stacks
  // and the allocator's per-thread arenas (64 MB of address space each,
  // up to a fixed count). The second batch must then add next to nothing.
  constexpr size_t kCycles = 100;
  for (size_t i = 0; i < kCycles; ++i) cycle();
  wait_for([&] { return live() == 0.0; });
  const size_t before_kb = vm_size_kb();
  for (size_t i = 0; i < kCycles; ++i) cycle();
  wait_for([&] { return live() == 0.0; });
  EXPECT_EQ(live(), 0.0);
  // Each unjoined reader keeps its 8 MB stack mapped: 100 of them grow
  // VmSize by ~800 MB. Released readers leave at most a few cached stacks.
  const size_t after_kb = vm_size_kb();
  const size_t growth_kb = after_kb - std::min(before_kb, after_kb);
  EXPECT_LT(growth_kb, 128u * 1024u) << "VmSize grew " << growth_kb << " kB";
  EXPECT_EQ(registry.counter("service.connections.accepted").value(),
            2 * kCycles);
  server.stop();
}

TEST(PlanningService, EveryStatMatchesItsRegistryMetric) {
  {
    // A bad request, a two-tick subscription, admission and every shed
    // reason. Each solve stalls 300 ms, so the drain that answers the two
    // admitted plans stays open while a second connection is shed.
    obs::MetricsRegistry registry;
    obs::ScopedObservation scope(&registry);
    ServiceConfig config = model_config();
    config.queue_capacity = 2;  // high and normal shares 2, low share 1
    config.workers = 1;
    config.chaos.stall_solve_pct = 100.0;
    config.chaos.stall_solve_ms = 300;
    PlanningService server(std::move(config));
    server.pause_dispatch(true);
    server.start();
    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ServiceClient late;
    ASSERT_TRUE(late.connect("127.0.0.1", server.port()));

    EXPECT_EQ(error_code_of(client.call("{")), kErrBadRequest);
    const auto ack = client.call(
        R"({"id":1,"verb":"subscribe","interval_ms":100,"ticks":2})");
    ASSERT_TRUE(ack.has_value()) << client.last_error();
    ASSERT_TRUE(must_parse(*ack).find("ok")->as_bool()) << *ack;
    for (int tick = 0; tick < 2; ++tick) {
      const auto line = client.recv_line();
      ASSERT_TRUE(line.has_value()) << client.last_error();
      ASSERT_TRUE(is_telemetry_line(*line)) << *line;
    }

    // Admitted with a deadline it outlives in the paused queue.
    ASSERT_TRUE(client.send_line(
        R"({"id":2,"verb":"plan","priority":"low","load_pct":30,"deadline_ms":1})"));
    wait_for([&] { return server.stats().admitted == 1; });
    ASSERT_EQ(server.stats().admitted, 1u);
    EXPECT_EQ(error_code_of(client.call(
                  R"({"id":3,"verb":"plan","priority":"low","load_pct":30})")),
              kErrShedPriority);
    ASSERT_TRUE(client.send_line(
        R"({"id":4,"verb":"plan","priority":"high","load_pct":30})"));
    wait_for([&] { return server.stats().admitted == 2; });
    ASSERT_EQ(server.stats().admitted, 2u);
    EXPECT_EQ(error_code_of(client.call(
                  R"({"id":5,"verb":"plan","priority":"high","load_pct":30})")),
              kErrShedQueueFull);

    std::thread stopper([&] { server.stop(); });
    wait_for([&] {
      const auto health = late.call(R"({"id":6,"verb":"health"})");
      return health.has_value() &&
             must_parse(*health).find("result")->find("draining")->as_bool();
    });
    EXPECT_EQ(error_code_of(late.call(R"({"id":7,"verb":"plan","load_pct":30})")),
              kErrShedDraining);
    EXPECT_EQ(error_code_of(late.call(R"({"id":8,"verb":"subscribe"})")),
              kErrShedDraining);
    std::map<uint64_t, std::string> answers;
    for (int i = 0; i < 2; ++i) {
      const auto line = client.recv_line();
      ASSERT_TRUE(line.has_value()) << client.last_error();
      answers[static_cast<uint64_t>(must_parse(*line).find("id")->as_number())] =
          *line;
    }
    stopper.join();
    EXPECT_EQ(error_code_of(answers[2]), kErrDeadlineExceeded);
    EXPECT_TRUE(must_parse(answers[4]).find("ok")->as_bool()) << answers[4];

    const PlanningService::Stats stats =
        expect_stats_match_registry(server, registry);
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.shed, 4u);
    EXPECT_EQ(stats.bad_requests, 1u);
    EXPECT_EQ(stats.subscriptions, 1u);
    EXPECT_EQ(stats.telemetry_ticks, 2u);
    EXPECT_EQ(stats.deadline_expired, 1u);
    EXPECT_EQ(stats.queue_high_water, 2u);
  }
  {
    // Every read sleeps 400 ms, four tick intervals: the subscriber's
    // mailbox stays full and the broadcaster drops ticks.
    obs::MetricsRegistry registry;
    obs::ScopedObservation scope(&registry);
    ServiceConfig config = model_config();
    config.chaos.delay_read_pct = 100.0;
    config.chaos.delay_read_ms = 400;
    PlanningService server(std::move(config));
    server.start();
    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    const auto ack =
        client.call(R"({"id":1,"verb":"subscribe","interval_ms":100})");
    ASSERT_TRUE(ack.has_value()) << client.last_error();
    ASSERT_TRUE(client.send_line(R"({"id":2,"verb":"ping"})"));
    wait_for([&] { return server.stats().dropped_ticks > 0; });
    for (;;) {
      const auto line = client.recv_line();
      ASSERT_TRUE(line.has_value()) << client.last_error();
      if (!is_telemetry_line(*line)) {
        EXPECT_EQ(*line, encode_ping_response(2, server.info()));
        break;
      }
    }
    server.stop();

    const PlanningService::Stats stats =
        expect_stats_match_registry(server, registry);
    EXPECT_GT(stats.dropped_ticks, 0u);
    EXPECT_GT(stats.telemetry_ticks, 0u);
    EXPECT_EQ(stats.admitted, 1u);
  }
}

/// Satellite bugfix: a server that dies mid-response (or stalls forever)
/// must not hang the client. The timeout path reports timed_out(); the
/// mid-response kill path reports EOF — both clean errors, never a hang.
TEST(ServiceClient, TimeoutAndMidResponseKillAreCleanErrors) {
  // A raw listener the test controls byte-for-byte.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  // Stalled server: accepts, reads, never answers.
  std::thread stall_server([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    char buf[512];
    [[maybe_unused]] const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ::close(fd);
  });
  ServiceClient client;
  client.set_timeout_ms(50);
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.call(R"({"id":1,"verb":"ping"})").has_value());
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(client.timed_out());
  EXPECT_NE(client.last_error().find("timeout"), std::string::npos);
  EXPECT_LT((std::chrono::duration<double, std::milli>(waited).count()),
            450.0);
  stall_server.join();

  // Killed mid-response: half a frame, no newline, then the socket dies.
  std::thread kill_server([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    char buf[512];
    [[maybe_unused]] const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    const char partial[] = "{\"id\":1,\"ok\":tr";
    [[maybe_unused]] const ssize_t m =
        ::send(fd, partial, sizeof partial - 1, MSG_NOSIGNAL);
    ::close(fd);
  });
  ServiceClient victim;
  victim.set_timeout_ms(2000);
  ASSERT_TRUE(victim.connect("127.0.0.1", port));
  EXPECT_FALSE(victim.call(R"({"id":1,"verb":"ping"})").has_value());
  EXPECT_FALSE(victim.timed_out());
  EXPECT_NE(victim.last_error().find("closed"), std::string::npos);
  kill_server.join();
  ::close(lfd);
}

}  // namespace
}  // namespace coolopt::service
