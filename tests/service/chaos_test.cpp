// Deterministic chaos: the ChaosInjector fires the same fault sequence
// for a fixed seed, retried clients ride through dropped connections and
// truncated frames, a surviving response is always byte-identical to the
// direct engine call (faults desync framing, never corrupt content), and
// the health verb keeps answering on the probe plane throughout.
#include "service/chaos.h"

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/synthetic.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/server.h"
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

ServiceConfig chaos_config(const ChaosOptions& chaos, size_t machines = 20) {
  ServiceConfig config;
  config.model = test_model(machines);
  config.chaos = chaos;
  return config;
}

TEST(ChaosInjector, SameSeedFiresTheSameFaultSequence) {
  ChaosOptions options;
  options.seed = 9;
  options.drop_connection_pct = 30.0;
  options.truncate_write_pct = 30.0;
  ChaosInjector a(options);
  ChaosInjector b(options);
  std::vector<bool> fired_a;
  std::vector<bool> fired_b;
  for (int i = 0; i < 200; ++i) {
    fired_a.push_back(a.drop_connection());
    fired_a.push_back(a.truncate_write());
    fired_b.push_back(b.drop_connection());
    fired_b.push_back(b.truncate_write());
  }
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(a.counters().dropped_connections, b.counters().dropped_connections);
  EXPECT_EQ(a.counters().truncated_writes, b.counters().truncated_writes);
  EXPECT_GT(a.counters().dropped_connections, 0u);

  // Hooks draw from forked per-hook streams: one hook's sequence does not
  // depend on how often the others are consulted.
  ChaosInjector lone(options);
  std::vector<bool> drops_only;
  for (int i = 0; i < 200; ++i) drops_only.push_back(lone.drop_connection());
  std::vector<bool> interleaved_drops;
  for (size_t i = 0; i < fired_a.size(); i += 2) {
    interleaved_drops.push_back(fired_a[i]);
  }
  EXPECT_EQ(drops_only, interleaved_drops);

  options.seed = 10;
  ChaosInjector other(options);
  std::vector<bool> fired_other;
  for (int i = 0; i < 200; ++i) {
    fired_other.push_back(other.drop_connection());
    fired_other.push_back(other.truncate_write());
  }
  EXPECT_NE(fired_a, fired_other);
}

struct ChaosMetric {
  const char* metric;
  uint64_t ChaosInjector::Counters::*field;
};

constexpr ChaosMetric kChaosMetrics[] = {
    {"service.chaos.dropped_connections",
     &ChaosInjector::Counters::dropped_connections},
    {"service.chaos.delayed_reads", &ChaosInjector::Counters::delayed_reads},
    {"service.chaos.truncated_writes",
     &ChaosInjector::Counters::truncated_writes},
    {"service.chaos.stalled_solves", &ChaosInjector::Counters::stalled_solves},
};
static_assert(std::size(kChaosMetrics) * sizeof(uint64_t) ==
                  sizeof(ChaosInjector::Counters),
              "every Counters field has a row");

TEST(ChaosInjector, EveryCounterMatchesItsRegistryMetric) {
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  ChaosOptions options;
  options.seed = 4;
  options.drop_connection_pct = 50.0;
  options.delay_read_pct = 50.0;
  options.delay_read_ms = 7;
  options.truncate_write_pct = 50.0;
  options.stall_solve_pct = 50.0;
  options.stall_solve_ms = 9;
  ChaosInjector chaos(options);
  for (int i = 0; i < 100; ++i) {
    chaos.drop_connection();
    uint64_t delay_ms = 0;
    if (chaos.delay_read(delay_ms)) {
      EXPECT_EQ(delay_ms, 7u);
    }
    chaos.truncate_write();
    uint64_t stall_ms = 0;
    if (chaos.stall_solve(stall_ms)) {
      EXPECT_EQ(stall_ms, 9u);
    }
  }
  const ChaosInjector::Counters fired = chaos.counters();
  for (const ChaosMetric& row : kChaosMetrics) {
    EXPECT_EQ(fired.*row.field, registry.counter(row.metric).value())
        << row.metric;
    EXPECT_GT(fired.*row.field, 0u) << row.metric << " never fired";
    EXPECT_LT(fired.*row.field, 100u) << row.metric << " always fired";
  }
}

TEST(ChaosInjector, DefaultOptionsDisableTheSeamEntirely) {
  EXPECT_FALSE(ChaosOptions{}.enabled());
  PlanningService server(chaos_config(ChaosOptions{}));
  EXPECT_EQ(server.chaos(), nullptr);
  ChaosOptions armed;
  armed.drop_connection_pct = 1.0;
  EXPECT_TRUE(armed.enabled());
}

TEST(ChaosService, RetriesRideThroughDroppedConnections) {
  ChaosOptions chaos;
  chaos.seed = 3;
  chaos.drop_connection_pct = 25.0;
  PlanningService server(chaos_config(chaos));
  server.start();

  ServiceClient client;
  client.set_timeout_ms(2000);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ServiceClient::RetryPolicy policy;
  policy.attempts = 8;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 4;

  WireRequest ping;
  ping.verb = Verb::kPing;
  int retried_calls = 0;
  for (uint64_t id = 1; id <= 20; ++id) {
    ping.id = id;
    // Fresh connection per call: every call is an accept opportunity, so
    // the drop hook gets real exposure (call_with_retry reconnects).
    client.close();
    const auto response = client.call_with_retry(ping, policy);
    ASSERT_TRUE(response.has_value())
        << "id " << id << ": " << client.last_error();
    // Chaos never corrupts a surviving response: byte-identical always.
    EXPECT_EQ(*response, encode_ping_response(id, server.info()));
    retried_calls += client.last_attempts() > 1 ? 1 : 0;
  }
  // The injector actually fired (seed 3 drops several of these accepts)
  // and the retry layer absorbed every one of them.
  ASSERT_NE(server.chaos(), nullptr);
  EXPECT_GT(server.chaos()->counters().dropped_connections, 0u);
  EXPECT_GT(retried_calls, 0);
  server.stop();
}

TEST(ChaosService, TruncatedWriteIsEofNeverCorruptBytes) {
  ChaosOptions chaos;
  chaos.seed = 5;
  chaos.truncate_write_pct = 100.0;  // every response dies mid-frame
  PlanningService server(chaos_config(chaos));
  server.start();

  ServiceClient client;
  client.set_timeout_ms(2000);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // The frame is cut and the socket shut down: the client sees EOF (a
  // framing failure), never a complete-but-wrong line.
  EXPECT_FALSE(client.call(R"({"id":1,"verb":"ping"})").has_value());
  EXPECT_FALSE(client.timed_out());
  EXPECT_GE(server.chaos()->counters().truncated_writes, 1u);

  // With every write truncated, retries exhaust their budget cleanly.
  WireRequest ping;
  ping.id = 2;
  ping.verb = Verb::kPing;
  ServiceClient::RetryPolicy policy;
  policy.attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  EXPECT_FALSE(client.call_with_retry(ping, policy).has_value());
  EXPECT_EQ(client.last_attempts(), 3);
  server.stop();
}

TEST(ChaosService, DelayAndStallHooksSlowButNeverChangeBytes) {
  ChaosOptions chaos;
  chaos.seed = 11;
  chaos.delay_read_pct = 100.0;
  chaos.delay_read_ms = 1;
  chaos.stall_solve_pct = 100.0;
  chaos.stall_solve_ms = 1;
  PlanningService server(chaos_config(chaos));
  server.start();

  ServiceClient client;
  client.set_timeout_ms(5000);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto response =
      client.call(R"({"id":4,"verb":"plan","load_pct":35})");
  ASSERT_TRUE(response.has_value()) << client.last_error();
  const double load = 0.35 * server.info().capacity_files_s;
  EXPECT_EQ(*response,
            encode_plan_response(
                4, server.plan_engine()->solve(core::PlanRequest(
                       core::Scenario::by_number(8), load))));
  EXPECT_GE(server.chaos()->counters().delayed_reads, 1u);
  EXPECT_GE(server.chaos()->counters().stalled_solves, 1u);
  server.stop();
}

/// The probe plane: health answers on the reader thread, so it keeps
/// working while the admission queue is saturated — and reports the depth.
TEST(ChaosService, HealthVerbAnswersWhileTheQueueIsBacklogged) {
  ServiceConfig config;
  config.model = test_model();
  PlanningService server(std::move(config));
  server.start();
  server.pause_dispatch(true);
  ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (uint64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(client.send_line(util::strf(
        R"({"id":%llu,"verb":"plan","load_pct":30})",
        static_cast<unsigned long long>(id))));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().admitted, 3u);

  ServiceClient probe;
  probe.set_timeout_ms(2000);
  ASSERT_TRUE(probe.connect("127.0.0.1", server.port()));
  const auto response = probe.call(R"({"id":9,"verb":"health"})");
  ASSERT_TRUE(response.has_value()) << probe.last_error();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(*response, doc, error)) << error;
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("verb")->as_string(), "health");
  EXPECT_DOUBLE_EQ(doc.find("result")->find("queue_depth")->as_number(), 3.0);
  EXPECT_FALSE(doc.find("result")->find("draining")->as_bool());

  server.pause_dispatch(false);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.recv_line().has_value());
  }
  server.stop();
}

}  // namespace
}  // namespace coolopt::service
