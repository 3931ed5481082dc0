// Service-layer performance: sustained request throughput and tail latency
// of an in-process cooloptd (PlanningService) under concurrent clients.
//
// Setup: a model-backed service over a 200-machine synthetic fleet (no
// simulator, so startup is milliseconds and every request exercises the
// planner + wire path, which is what the service layer adds). Requests
// cycle the closed-form scenarios (1-5, 7), whose warm solves are
// microseconds at n=200 — the Optimal-distribution scenarios (6, 8)
// engage the bounded LP at tens of ms per solve on this fleet, which
// would measure planner cost (perf_engine's job), not service overhead.
// Each client thread pipelines a window of requests over its own TCP
// connection across 200 distinct operating points; every response is verified
// byte-for-byte against the expected encoding precomputed from direct
// in-process PlanEngine calls — the bench doubles as a determinism check
// under real socket concurrency.
//
// Cases: 1, 8 and 64 concurrent clients, then a subscriber-overhead phase:
// the 8-client case re-measured with 8 live `subscribe` streams at the
// floor interval. Targets (CI gate): the 8-client case sustains >= 5000
// requests/sec, zero responses diverge from the direct-call bytes at any
// client count, and streaming costs the plan path at most 5% throughput.
// Emits BENCH_service.json with req/s and p50/p99/p999 per case plus the
// subscriber-overhead block; exits nonzero on a miss.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/synthetic.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

namespace {

constexpr size_t kPoints = 200;  ///< distinct (load) operating points

struct CaseResult {
  size_t clients = 0;
  size_t requests = 0;
  size_t mismatches = 0;
  double wall_s = 0.0;
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_us.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_us[lo] + (sorted_us[hi] - sorted_us[lo]) * frac;
}

/// Extracts N from a response line's leading `{"id":N` without a full
/// parse (the full-line byte comparison is the real validation).
bool response_id(const std::string& line, size_t& out) {
  constexpr const char* kPrefix = "{\"id\":";
  if (line.rfind(kPrefix, 0) != 0) return false;
  out = static_cast<size_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
  return true;
}

CaseResult run_case(uint16_t port, size_t clients, size_t requests_per_client,
                    size_t window,
                    const std::vector<std::string>& request_lines,
                    const std::vector<std::string>& expected_lines) {
  CaseResult result;
  result.clients = clients;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};

  auto client_main = [&](size_t index) {
    service::ServiceClient client;
    if (!client.connect("127.0.0.1", port)) {
      failures.fetch_add(1);
      return;
    }
    std::vector<double>& lat = latencies[index];
    lat.reserve(requests_per_client);
    // Send timestamp per point id: the pipeline window (< kPoints) bounds
    // how many ids are in flight, so ids never collide within a window.
    std::vector<std::chrono::steady_clock::time_point> sent(kPoints);
    size_t next = 0;      // next request index to send
    size_t received = 0;  // responses consumed
    while (received < requests_per_client) {
      while (next < requests_per_client && next - received < window) {
        const size_t point = next % kPoints;
        sent[point] = std::chrono::steady_clock::now();
        if (!client.send_line(request_lines[point])) {
          failures.fetch_add(1);
          return;
        }
        ++next;
      }
      const std::optional<std::string> line = client.recv_line();
      if (!line.has_value()) {
        failures.fetch_add(1);
        return;
      }
      size_t point = 0;
      if (!response_id(*line, point) || point >= kPoints ||
          *line != expected_lines[point]) {
        mismatches.fetch_add(1);
      } else {
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - sent[point])
                          .count());
      }
      ++received;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) threads.emplace_back(client_main, i);
  for (std::thread& t : threads) t.join();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  result.requests = clients * requests_per_client;
  result.mismatches = mismatches.load() + failures.load() * requests_per_client;
  result.req_per_s =
      result.wall_s > 0.0 ? static_cast<double>(result.requests) / result.wall_s
                          : 0.0;
  std::vector<double> all;
  all.reserve(result.requests);
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  result.p50_us = percentile(all, 0.50);
  result.p99_us = percentile(all, 0.99);
  result.p999_us = percentile(all, 0.999);
  return result;
}

/// One telemetry subscriber: subscribes at the floor interval, then counts
/// tick lines until `stop` is raised. Unbounded streams deliver a tick every
/// interval, so the recv loop re-checks the flag at least that often and the
/// thread winds down within roughly one interval of the flag flipping.
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
  const std::optional<std::string> ack =
      client.call(service::encode_request(request));
  if (!ack.has_value()) {
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

/// Throughput with N live subscribers attached vs. the bare 8-client case.
/// The broadcaster runs on its own thread and delivers through per-session
/// mailboxes, so the gate is that the solve/wire path stays within 5% of
/// the subscriber-free baseline.
struct SubscriberOverhead {
  size_t subscribers = 0;
  uint64_t interval_ms = 0;
  double baseline_req_per_s = 0.0;
  double loaded_req_per_s = 0.0;
  double overhead_pct = 0.0;
  size_t ticks_received = 0;
  size_t mismatches = 0;
  bool pass = false;
};

SubscriberOverhead run_subscriber_overhead(
    uint16_t port, size_t subscribers, uint64_t interval_ms, size_t clients,
    size_t requests_per_client, size_t window,
    const std::vector<std::string>& request_lines,
    const std::vector<std::string>& expected_lines) {
  SubscriberOverhead result;
  result.subscribers = subscribers;
  result.interval_ms = interval_ms;

  // Three alternating (bare, streaming) pairs, judged by the median pair:
  // machine-wide throughput drifts phase to phase on small hosts, and a
  // single pair read during a drift would charge that drift to streaming.
  constexpr size_t kPairs = 3;
  struct Pair {
    double baseline = 0.0;
    double loaded = 0.0;
    double overhead_pct = 0.0;
  };
  std::vector<Pair> pairs;
  pairs.reserve(kPairs);
  for (size_t round = 0; round < kPairs; ++round) {
    const CaseResult baseline =
        run_case(port, clients, requests_per_client, window, request_lines,
                 expected_lines);
    result.mismatches += baseline.mismatches;

    std::atomic<bool> stop{false};
    std::atomic<size_t> ticks{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(subscribers);
    for (size_t i = 0; i < subscribers; ++i) {
      threads.emplace_back(subscriber_main, port, result.interval_ms,
                           std::cref(stop), std::ref(ticks),
                           std::ref(failures));
    }
    // Let every subscription receive its baseline tick before measuring, so
    // the measured window is steady-state streaming, not subscribe setup.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<uint64_t>(2 * result.interval_ms, 500)));

    const CaseResult loaded =
        run_case(port, clients, requests_per_client, window, request_lines,
                 expected_lines);
    result.mismatches += loaded.mismatches + failures.load();

    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    result.ticks_received += ticks.load();

    Pair pair;
    pair.baseline = baseline.req_per_s;
    pair.loaded = loaded.req_per_s;
    pair.overhead_pct =
        pair.baseline > 0.0
            ? (pair.baseline - pair.loaded) / pair.baseline * 100.0
            : 100.0;
    pairs.push_back(pair);
  }

  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) {
              return a.overhead_pct < b.overhead_pct;
            });
  const Pair& median = pairs[pairs.size() / 2];
  result.baseline_req_per_s = median.baseline;
  result.loaded_req_per_s = median.loaded;
  result.overhead_pct = median.overhead_pct;
  result.pass = result.mismatches == 0 && result.overhead_pct <= 5.0 &&
                result.ticks_received >= 2 * subscribers;
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
  util::CliFlags flags;
  flags.define("json-out", "machine-readable results path", "BENCH_service.json");
  flags.define("machines", "synthetic fleet size", "200");
  flags.define("requests", "requests per case (split across clients)", "16000");
  flags.define("window", "pipelined requests in flight per client", "32");
  flags.define("subscribers", "telemetry streams in the overhead phase", "8");
  flags.define("sub-interval-ms", "tick interval the overhead phase requests",
               "100");
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("cooloptd service performance").c_str());
    return 0;
  }
  const size_t machines = static_cast<size_t>(flags.get_int("machines", 200));
  const size_t total_requests =
      static_cast<size_t>(flags.get_int("requests", 16000));
  const size_t window = std::max(1, flags.get_int("window", 32));
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
  // same parsed doubles the server sees (%.12g re-parse is exact for
  // round-trippable values; this removes the assumption entirely).
  std::vector<std::string> request_lines(kPoints);
  std::vector<std::string> expected_lines(kPoints);
  const double capacity = server.info().capacity_files_s;
  constexpr int kScenarios[] = {1, 2, 3, 4, 5, 7};  // closed-form paths
  for (size_t i = 0; i < kPoints; ++i) {
    service::WireRequest request;
    request.id = i;
    request.verb = service::Verb::kPlan;
    request.priority = service::Priority::kHigh;
    request.scenario = kScenarios[i % (sizeof kScenarios / sizeof *kScenarios)];
    request.load_pct =
        95.0 * static_cast<double>(i + 1) / static_cast<double>(kPoints);
    request_lines[i] = service::encode_request(request);

    service::WireRequest parsed;
    std::string parse_error;
    if (!service::parse_request(request_lines[i], parsed, parse_error)) {
      std::fprintf(stderr, "self-check: %s\n", parse_error.c_str());
      return 2;
    }
    const core::PlanRequest plan_request(
        core::Scenario::by_number(parsed.scenario),
        parsed.load_pct / 100.0 * capacity, parsed.quarantined);
    expected_lines[i] = service::encode_plan_response(
        parsed.id, server.plan_engine()->solve(plan_request));
  }

  std::printf("cooloptd service performance (%zu-machine synthetic fleet, "
              "%zu workers)\n\n",
              machines, server.info().workers);

  const std::vector<size_t> client_counts = {1, 8, 64};
  std::vector<CaseResult> results;
  for (const size_t clients : client_counts) {
    const size_t per_client = std::max<size_t>(1, total_requests / clients);
    results.push_back(run_case(server.port(), clients, per_client, window,
                               request_lines, expected_lines));
  }

  // Subscriber-overhead phase: the 8-client case re-measured back-to-back,
  // bare and then with 8 live telemetry subscribers at the floor interval.
  constexpr size_t kOverheadClients = 8;
  const SubscriberOverhead overhead = run_subscriber_overhead(
      server.port(), subscribers, sub_interval_ms, kOverheadClients,
      std::max<size_t>(1, total_requests / kOverheadClients), window,
      request_lines, expected_lines);
  server.stop();

  util::TextTable table({"clients", "requests", "req/s", "p50 (us)",
                         "p99 (us)", "p999 (us)", "identical"});
  bool pass = true;
  double req_per_s_8 = 0.0;
  for (const CaseResult& r : results) {
    table.row({util::strf("%zu", r.clients), util::strf("%zu", r.requests),
               util::strf("%.0f", r.req_per_s), util::strf("%.0f", r.p50_us),
               util::strf("%.0f", r.p99_us), util::strf("%.0f", r.p999_us),
               r.mismatches == 0 ? "yes" : util::strf("NO (%zu)", r.mismatches)});
    if (r.mismatches != 0) pass = false;
    if (r.clients == 8) req_per_s_8 = r.req_per_s;
  }
  if (req_per_s_8 < 5000.0) pass = false;
  if (!overhead.pass) pass = false;
  std::printf("%s\n", table.render().c_str());

  std::printf("subscriber overhead, median of 3 pairs (%zu clients, %zu "
              "subscribers @ %llu ms): "
              "%.0f -> %.0f req/s (%+.2f%%), %zu ticks streamed: %s\n\n",
              kOverheadClients, overhead.subscribers,
              static_cast<unsigned long long>(overhead.interval_ms),
              overhead.baseline_req_per_s, overhead.loaded_req_per_s,
              overhead.overhead_pct, overhead.ticks_received,
              overhead.pass ? "PASS" : "FAIL");

  const std::string json_path =
      flags.get_string("json-out", "BENCH_service.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 2;
  }
  std::string json;
  obs::JsonWriter w(json);
  w.begin_object();
  w.kv("bench", "service");
  w.kv("machines", static_cast<uint64_t>(machines));
  w.kv("workers", static_cast<uint64_t>(server.info().workers));
  w.kv("window", static_cast<uint64_t>(window));
  w.key("cases");
  w.begin_array();
  for (const CaseResult& r : results) {
    w.begin_object();
    w.kv("n", static_cast<uint64_t>(r.clients));
    w.kv("clients", static_cast<uint64_t>(r.clients));
    w.kv("requests", static_cast<uint64_t>(r.requests));
    w.kv("req_per_s", r.req_per_s);
    w.kv("p50_us", r.p50_us);
    w.kv("p99_us", r.p99_us);
    w.kv("p999_us", r.p999_us);
    w.kv("mismatches", static_cast<uint64_t>(r.mismatches));
    w.end_object();
  }
  w.end_array();
  w.key("subscribers");
  w.begin_object();
  w.kv("subscribers", static_cast<uint64_t>(overhead.subscribers));
  w.kv("clients", static_cast<uint64_t>(kOverheadClients));
  w.kv("interval_ms", overhead.interval_ms);
  w.kv("baseline_req_per_s", overhead.baseline_req_per_s);
  w.kv("with_subscribers_req_per_s", overhead.loaded_req_per_s);
  w.kv("overhead_pct", overhead.overhead_pct);
  w.kv("ticks_received", static_cast<uint64_t>(overhead.ticks_received));
  w.kv("pass", overhead.pass);
  w.end_object();
  w.kv("pass", pass);
  w.end_object();
  out << json << "\n";
  std::printf("(JSON written to %s)\n", json_path.c_str());

  std::printf("Targets (>= 5000 req/s at 8 clients; all responses "
              "bit-for-bit identical to direct engine calls; <= 5%% "
              "throughput loss with %zu subscribers): %s\n",
              overhead.subscribers, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
