// Service-layer gates that perfbench does not hold: sustained throughput of
// an in-process cooloptd (PlanningService) under 8 and 64 concurrent
// clients, byte-for-byte identity of every response under that
// concurrency, and the cost of live telemetry subscribers to the plan path.
// (perfbench/ measures the served path's latency layer by layer.)
//
// Setup: a model-backed service over a 200-machine synthetic fleet (no
// simulator, so startup is milliseconds and every request exercises the
// planner + wire path, which is what the service layer adds). Requests
// cycle the closed-form scenarios (1-5, 7), whose warm solves are
// microseconds at n=200 — the Optimal-distribution scenarios (6, 8)
// engage the bounded LP, which would measure planner cost (perf_engine's
// lp.solve rows), not service overhead.
// Each client thread pipelines a window of requests over its own TCP
// connection across 200 distinct operating points; every response is
// verified byte-for-byte against the expected encoding precomputed from
// direct in-process PlanEngine calls.
//
// Gates: the 8-client case sustains >= 5000 requests/sec; zero responses
// diverge from the direct-call bytes in any phase; 8 live `subscribe`
// streams at the floor interval cost the 8-client case at most 5%
// throughput (median of three bare/streaming pairs) while delivering at
// least two ticks per subscriber. Writes BENCH_service.json
// (bench/report.h).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"

using namespace coolopt;

namespace {

constexpr size_t kPoints = 200;  ///< distinct (load) operating points

struct Workload {
  uint16_t port = 0;
  size_t requests = 0;  ///< per case, split across clients
  size_t window = 0;    ///< pipelined requests in flight per client
  std::vector<std::string> request_lines;
  std::vector<std::string> expected_lines;
};

struct CaseResult {
  double req_per_s = 0.0;
  size_t mismatches = 0;  ///< divergent responses, plus lost ones
};

/// Extracts N from a response line's leading `{"id":N` without a full
/// parse (the full-line byte comparison is the real validation).
bool response_id(const std::string& line, size_t& out) {
  constexpr const char* kPrefix = "{\"id\":";
  if (line.rfind(kPrefix, 0) != 0) return false;
  out = static_cast<size_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
  return true;
}

CaseResult run_case(const Workload& w, size_t clients) {
  const size_t per_client = std::max<size_t>(1, w.requests / clients);
  std::atomic<size_t> mismatches{0};
  auto client_main = [&] {
    service::ServiceClient client;
    if (!client.connect("127.0.0.1", w.port)) {
      mismatches.fetch_add(per_client);
      return;
    }
    size_t next = 0;      // next request index to send
    size_t received = 0;  // responses consumed
    while (received < per_client) {
      while (next < per_client && next - received < w.window) {
        if (!client.send_line(w.request_lines[next % kPoints])) {
          mismatches.fetch_add(per_client - received);
          return;
        }
        ++next;
      }
      const std::optional<std::string> line = client.recv_line();
      if (!line.has_value()) {
        mismatches.fetch_add(per_client - received);
        return;
      }
      size_t point = 0;
      if (!response_id(*line, point) || point >= kPoints ||
          *line != w.expected_lines[point]) {
        mismatches.fetch_add(1);
      }
      ++received;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) threads.emplace_back(client_main);
  for (std::thread& t : threads) t.join();
  const double wall_s = bench::us_since(t0) / 1e6;
  CaseResult result;
  result.req_per_s =
      wall_s > 0.0 ? static_cast<double>(clients * per_client) / wall_s : 0.0;
  result.mismatches = mismatches.load();
  return result;
}

/// One telemetry subscriber: subscribes at `interval_ms`, then counts tick
/// lines until `stop` is raised. Unbounded streams deliver a tick every
/// interval, so the recv loop re-checks the flag at least that often.
void subscriber_main(uint16_t port, uint64_t interval_ms,
                     const std::atomic<bool>& stop,
                     std::atomic<size_t>& ticks_received,
                     std::atomic<size_t>& failures) {
  service::ServiceClient client;
  if (!client.connect("127.0.0.1", port)) {
    failures.fetch_add(1);
    return;
  }
  service::WireRequest request;
  request.id = 1;
  request.verb = service::Verb::kSubscribe;
  request.interval_ms = interval_ms;
  request.ticks = 0;  // unbounded: stream until this client disconnects
  if (!client.call(service::encode_request(request)).has_value()) {
    failures.fetch_add(1);
    return;
  }
  while (!stop.load(std::memory_order_relaxed)) {
    const std::optional<std::string> line = client.recv_line();
    if (!line.has_value()) return;  // server closed (drain)
    if (line->rfind("{\"verb\":\"telemetry\"", 0) == 0) {
      ticks_received.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

struct SubscriberOverhead {
  double baseline_req_per_s = 0.0;
  double loaded_req_per_s = 0.0;
  double overhead_pct = 0.0;
  size_t ticks_received = 0;
  size_t mismatches = 0;
};

/// The `clients` case bare, then with `subscribers` live streams, three
/// times, judged by the median pair: machine-wide throughput drifts phase
/// to phase on small hosts, and a single pair read during a drift would
/// charge that drift to streaming.
SubscriberOverhead run_subscriber_overhead(const Workload& w, size_t clients,
                                           size_t subscribers,
                                           uint64_t interval_ms) {
  constexpr size_t kPairs = 3;
  SubscriberOverhead result;
  std::vector<SubscriberOverhead> pairs;
  for (size_t round = 0; round < kPairs; ++round) {
    const CaseResult baseline = run_case(w, clients);

    std::atomic<bool> stop{false};
    std::atomic<size_t> ticks{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(subscribers);
    for (size_t i = 0; i < subscribers; ++i) {
      threads.emplace_back(subscriber_main, w.port, interval_ms,
                           std::cref(stop), std::ref(ticks),
                           std::ref(failures));
    }
    // Let every subscription receive its baseline tick before measuring, so
    // the measured window is steady-state streaming, not subscribe setup.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<uint64_t>(2 * interval_ms, 500)));
    const CaseResult loaded = run_case(w, clients);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();

    result.mismatches +=
        baseline.mismatches + loaded.mismatches + failures.load();
    result.ticks_received += ticks.load();
    SubscriberOverhead pair;
    pair.baseline_req_per_s = baseline.req_per_s;
    pair.loaded_req_per_s = loaded.req_per_s;
    pair.overhead_pct =
        baseline.req_per_s > 0.0
            ? (baseline.req_per_s - loaded.req_per_s) / baseline.req_per_s *
                  100.0
            : 100.0;
    pairs.push_back(pair);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const SubscriberOverhead& a, const SubscriberOverhead& b) {
              return a.overhead_pct < b.overhead_pct;
            });
  const SubscriberOverhead& median = pairs[pairs.size() / 2];
  result.baseline_req_per_s = median.baseline_req_per_s;
  result.loaded_req_per_s = median.loaded_req_per_s;
  result.overhead_pct = median.overhead_pct;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  // The subscriber phase streams registry deltas; without --metrics-out the
  // session attaches nothing, so keep a bench-local registry attached (same
  // arrangement cooloptd uses) so ticks carry real counter movement.
  obs::MetricsRegistry standalone_registry;
  std::optional<obs::ScopedObservation> standalone_scope;
  if (!obs_session.active()) standalone_scope.emplace(&standalone_registry);
  bench::Report report("service");
  util::CliFlags flags;
  flags.define("machines", "synthetic fleet size", "200");
  flags.define("requests", "requests per case (split across clients)", "16000");
  flags.define("window", "pipelined requests in flight per client", "32");
  flags.define("subscribers", "telemetry streams in the overhead phase", "8");
  flags.define("sub-interval-ms", "tick interval the overhead phase requests",
               "100");
  if (const int rc = report.parse_flags(flags, argc, argv,
                                        "cooloptd service performance");
      rc >= 0) {
    return rc;
  }
  const size_t machines = static_cast<size_t>(flags.get_int("machines", 200));
  const size_t subscribers =
      static_cast<size_t>(std::max(1, flags.get_int("subscribers", 8)));
  const uint64_t sub_interval_ms = static_cast<uint64_t>(
      std::max(1, flags.get_int("sub-interval-ms", 100)));

  // Model-backed service over the synthetic fleet; the same shared engine
  // answers the direct calls the expected bytes come from.
  core::SyntheticModelOptions model_options;
  model_options.machines = machines;
  model_options.seed = 7;
  service::ServiceConfig config;
  config.model = core::share_model(core::make_synthetic_model(model_options));
  config.queue_capacity = 4096;  // the bench gates on shed-free admission
  config.max_connections = 128;
  service::PlanningService server(std::move(config));
  server.start();

  // 200 distinct plan requests and, via direct in-process engine calls on
  // the very same PlanEngine, the exact bytes the service must produce.
  // Requests round-trip through parse_request so the bench plans from the
  // same parsed doubles the server sees.
  Workload w;
  w.port = server.port();
  w.requests = static_cast<size_t>(flags.get_int("requests", 16000));
  w.window = static_cast<size_t>(std::max(1, flags.get_int("window", 32)));
  w.request_lines.resize(kPoints);
  w.expected_lines.resize(kPoints);
  const double capacity = server.info().capacity_files_s;
  constexpr int kScenarios[] = {1, 2, 3, 4, 5, 7};  // closed-form paths
  for (size_t i = 0; i < kPoints; ++i) {
    service::WireRequest request;
    request.id = i;
    request.verb = service::Verb::kPlan;
    request.priority = service::Priority::kHigh;
    request.scenario = kScenarios[i % std::size(kScenarios)];
    request.load_pct =
        95.0 * static_cast<double>(i + 1) / static_cast<double>(kPoints);
    w.request_lines[i] = service::encode_request(request);

    service::WireRequest parsed;
    std::string parse_error;
    if (!service::parse_request(w.request_lines[i], parsed, parse_error)) {
      std::fprintf(stderr, "self-check: %s\n", parse_error.c_str());
      return 2;
    }
    const core::PlanRequest plan_request(
        core::Scenario::by_number(parsed.scenario),
        parsed.load_pct / 100.0 * capacity, parsed.quarantined);
    w.expected_lines[i] = service::encode_plan_response(
        parsed.id, server.plan_engine()->solve(plan_request));
  }

  std::printf("cooloptd service performance (%zu-machine synthetic fleet, "
              "%zu workers)\n\n",
              machines, server.info().workers);
  size_t mismatches = 0;
  double req_per_s_8 = 0.0;
  for (const size_t clients : {size_t{8}, size_t{64}}) {
    const CaseResult r = run_case(w, clients);
    report.row(util::strf("throughput/%zu", clients), r.req_per_s, "req/s");
    mismatches += r.mismatches;
    if (clients == 8) req_per_s_8 = r.req_per_s;
  }
  constexpr size_t kOverheadClients = 8;
  const SubscriberOverhead overhead = run_subscriber_overhead(
      w, kOverheadClients, subscribers, sub_interval_ms);
  server.stop();
  mismatches += overhead.mismatches;

  report.row("subscribers.baseline_throughput/8", overhead.baseline_req_per_s,
             "req/s");
  report.row("subscribers.loaded_throughput/8", overhead.loaded_req_per_s,
             "req/s");
  report.gate("throughput/8", req_per_s_8, ">=", 5000.0);
  report.gate("responses.mismatches", static_cast<double>(mismatches), "==",
              0.0);
  report.gate("subscribers.overhead_pct", overhead.overhead_pct, "<=", 5.0);
  report.gate("subscribers.ticks", static_cast<double>(overhead.ticks_received),
              ">=", static_cast<double>(2 * subscribers));
  return report.finish();
}
