// Chaos campaign: goodput and byte-integrity of cooloptd under deterministic
// fault injection, with a degraded fleet.
//
// Setup: a model-backed service partitioned into 8 fleet shards, with the
// ChaosInjector dropping 1% of accepted connections (seeded, so the fault
// sequence is reproducible run to run). Every request is a `fleetplan` that
// declares shards 2 and 5 down, so each solve exercises the failure-domain
// path: the down shards' healthy share is re-water-filled across the six
// survivors and the response carries the per-shard status + redistribution
// accounting. Clients issue each request on a fresh connection (every call
// is an accept, i.e. a drop opportunity) through call_with_retry, whose
// bounded reconnect-and-resend attempts are what turn a 1% connection-kill
// rate into ~100% goodput.
//
// Cases: 1, 4 and 8 concurrent clients (the canonical scenario is the
// 8-client case). Every successful response is verified byte-for-byte
// against the encoding precomputed from direct in-process FleetEngine
// calls — a chaos fault may kill a frame (EOF, retried) but must never
// corrupt one, so a single divergent byte fails the bench. A separate
// reproducibility probe solves the canonical degraded request at 1 and 8
// shard workers and requires bit-identical bytes, and a final `health`
// probe must report exactly the two declared shards as down.
//
// Gates: goodput >= 95% in every case, zero mismatched response bytes, at
// least one injected drop actually fired, the degraded plan reproduces
// bit-for-bit, and health sees both down shards. Writes BENCH_chaos.json
// (bench/report.h: goodput, fired faults, retry histogram); exits nonzero
// on a miss.

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
#include "fleet/fleet_engine.h"
#include "obs/session.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"

using namespace coolopt;

namespace {

constexpr size_t kPoints = 40;  ///< distinct fleetplan operating points

struct CaseResult {
  size_t clients = 0;
  size_t calls = 0;
  size_t succeeded = 0;
  size_t retried_calls = 0;  ///< calls that needed more than one attempt
  size_t mismatches = 0;     ///< successful responses with divergent bytes
  double goodput_pct = 0.0;
  double wall_s = 0.0;
  std::vector<size_t> attempts_hist;  ///< index = attempts, value = calls
};

/// Extracts N from a response line's leading `{"id":N` (the full-line byte
/// comparison against the expected encoding is the real validation).
bool response_id(const std::string& line, size_t& out) {
  constexpr const char* kPrefix = "{\"id\":";
  if (line.rfind(kPrefix, 0) != 0) return false;
  out = static_cast<size_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
  return true;
}

CaseResult run_case(uint16_t port, size_t clients, size_t calls_per_client,
                    int attempts,
                    const std::vector<service::WireRequest>& requests,
                    const std::vector<std::string>& expected_lines) {
  CaseResult result;
  result.clients = clients;
  result.attempts_hist.assign(static_cast<size_t>(attempts) + 1, 0);
  std::atomic<size_t> succeeded{0};
  std::atomic<size_t> retried{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::vector<size_t>> hists(
      clients, std::vector<size_t>(static_cast<size_t>(attempts) + 1, 0));

  auto client_main = [&](size_t index) {
    service::ServiceClient client;
    client.set_timeout_ms(10000);
    if (!client.connect("127.0.0.1", port)) return;  // counted as failures
    service::ServiceClient::RetryPolicy policy;
    policy.attempts = attempts;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 8;
    policy.seed = 100 + index;  // per-client deterministic jitter stream
    for (size_t i = 0; i < calls_per_client; ++i) {
      const size_t point = (index * calls_per_client + i) % kPoints;
      // Fresh connection per call: every call is an accept, so the drop
      // hook gets full exposure (call_with_retry reconnects on its own).
      client.close();
      const std::optional<std::string> response =
          client.call_with_retry(requests[point], policy);
      if (client.last_attempts() > 1) retried.fetch_add(1);
      const size_t used = static_cast<size_t>(
          std::clamp(client.last_attempts(), 1, attempts));
      ++hists[index][used];
      if (!response.has_value()) continue;
      size_t echoed = 0;
      if (!response_id(*response, echoed) || echoed >= kPoints ||
          *response != expected_lines[echoed]) {
        // A chaos fault may kill a frame; it must never corrupt one.
        mismatches.fetch_add(1);
        continue;
      }
      succeeded.fetch_add(1);
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) threads.emplace_back(client_main, i);
  for (std::thread& t : threads) t.join();
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  result.calls = clients * calls_per_client;
  result.succeeded = succeeded.load();
  result.retried_calls = retried.load();
  result.mismatches = mismatches.load();
  result.goodput_pct =
      result.calls > 0
          ? 100.0 * static_cast<double>(result.succeeded) /
                static_cast<double>(result.calls)
          : 0.0;
  for (const std::vector<size_t>& h : hists) {
    for (size_t a = 0; a < h.size(); ++a) result.attempts_hist[a] += h[a];
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  bench::Report report("chaos");
  util::CliFlags flags;
  flags.define("machines", "synthetic fleet size (split across shards)", "64");
  flags.define("shards", "fleet shard count", "8");
  flags.define("calls", "fleetplan calls per case (split across clients)",
               "600");
  flags.define("drop-pct", "chaos connection-drop probability, percent", "1");
  flags.define("chaos-seed", "chaos fault-stream seed", "17");
  flags.define("retries", "retry attempts per call", "6");
  if (const int rc =
          report.parse_flags(flags, argc, argv, "cooloptd chaos campaign");
      rc >= 0) {
    return rc;
  }
  const size_t machines = static_cast<size_t>(flags.get_int("machines", 64));
  const size_t shards = static_cast<size_t>(std::max(2, flags.get_int("shards", 8)));
  const size_t total_calls = static_cast<size_t>(flags.get_int("calls", 600));
  const double drop_pct = std::max(0.0, flags.get_double("drop-pct", 1.0));
  const uint64_t chaos_seed =
      static_cast<uint64_t>(std::max(0, flags.get_int("chaos-seed", 17)));
  const int attempts = std::max(1, flags.get_int("retries", 6));
  // The canonical degraded fleet: 2 of `shards` down for every request.
  const std::vector<size_t> down_shards = {2, shards > 5 ? 5 : shards - 1};

  // Model-backed fleet service with the connection-drop chaos hook armed;
  // the same FleetEngine answers the direct calls the expected bytes come
  // from, so byte comparison is exact.
  core::SyntheticModelOptions model_options;
  model_options.machines = machines;
  model_options.seed = 7;
  service::ServiceConfig config;
  config.model = core::share_model(core::make_synthetic_model(model_options));
  config.fleet_shards = shards;
  config.max_connections = 128;
  config.chaos.seed = chaos_seed;
  config.chaos.drop_connection_pct = drop_pct;
  service::PlanningService server(std::move(config));
  server.start();

  // kPoints distinct degraded fleetplan requests and their exact expected
  // bytes from direct in-process FleetEngine calls. Requests round-trip
  // through parse_request so the bench plans from the same parsed doubles
  // the server sees. Loads stay below the survivors' capacity (6/8 of the
  // fleet) so the redistribution is absorbed, not shed.
  std::vector<service::WireRequest> requests(kPoints);
  std::vector<std::string> expected_lines(kPoints);
  const double capacity = server.info().capacity_files_s;
  constexpr int kScenarios[] = {1, 2, 3, 4, 5, 7};  // closed-form paths
  for (size_t i = 0; i < kPoints; ++i) {
    service::WireRequest request;
    request.id = i;
    request.verb = service::Verb::kFleetplan;
    request.priority = service::Priority::kHigh;
    request.scenario = kScenarios[i % std::size(kScenarios)];
    request.load_pct =
        60.0 * static_cast<double>(i + 1) / static_cast<double>(kPoints);
    request.down_shards = down_shards;

    service::WireRequest parsed;
    std::string parse_error;
    if (!service::parse_request(service::encode_request(request), parsed,
                                parse_error)) {
      std::fprintf(stderr, "self-check: %s\n", parse_error.c_str());
      return 2;
    }
    requests[i] = parsed;
    fleet::FleetPlanRequest fleet_request;
    fleet_request.scenario = core::Scenario::by_number(parsed.scenario);
    fleet_request.load = parsed.load_pct / 100.0 * capacity;
    fleet_request.down_shards = parsed.down_shards;
    expected_lines[i] = service::encode_fleetplan_response(
        parsed.id, server.fleet_engine()->solve(fleet_request));
  }

  // Reproducibility probe: the same degraded solve at 1 and 8 shard
  // workers must produce bit-identical bytes (worker count and cache
  // temperature cannot change a degraded plan).
  fleet::FleetPlanRequest canonical;
  canonical.scenario = core::Scenario::by_number(requests[kPoints - 1].scenario);
  canonical.load = requests[kPoints - 1].load_pct / 100.0 * capacity;
  canonical.down_shards = down_shards;
  const std::string serial_bytes = service::encode_fleetplan_response(
      1, server.fleet_engine()->solve(canonical, 1));
  const std::string parallel_bytes = service::encode_fleetplan_response(
      1, server.fleet_engine()->solve(canonical, 8));
  const bool reproducible = serial_bytes == parallel_bytes;

  std::printf("cooloptd chaos campaign (%zu machines / %zu shards, shards "
              "%zu+%zu down, %.1f%% connection drops, seed %llu, %d "
              "attempts)\n\n",
              machines, shards, down_shards[0], down_shards[1], drop_pct,
              static_cast<unsigned long long>(chaos_seed), attempts);

  const std::vector<size_t> client_counts = {1, 4, 8};
  std::vector<CaseResult> results;
  for (const size_t clients : client_counts) {
    const size_t per_client = std::max<size_t>(1, total_calls / clients);
    results.push_back(run_case(server.port(), clients, per_client, attempts,
                               requests, expected_lines));
  }

  // End-to-end health: after the campaign the probe plane must still
  // answer and report exactly the declared shards as down.
  size_t health_shards_down = 0;
  bool health_ok = false;
  {
    service::ServiceClient probe;
    probe.set_timeout_ms(10000);
    service::WireRequest health;
    health.id = 9001;
    health.verb = service::Verb::kHealth;
    service::ServiceClient::RetryPolicy policy;
    policy.attempts = attempts;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 8;
    if (probe.connect("127.0.0.1", server.port())) {
      const std::optional<std::string> response =
          probe.call_with_retry(health, policy);
      if (response.has_value()) {
        health_ok = response->find("\"ok\":true") != std::string::npos;
        std::string::size_type at = 0;
        while ((at = response->find("\"status\":\"down\"", at)) !=
               std::string::npos) {
          ++health_shards_down;
          at += 1;
        }
      }
    }
  }

  const service::ChaosInjector::Counters fired = server.chaos()->counters();
  server.stop();

  size_t mismatches = 0;
  std::vector<size_t> attempts_hist(static_cast<size_t>(attempts) + 1, 0);
  for (const CaseResult& r : results) {
    report.row(util::strf("retried_calls/%zu", r.clients),
               static_cast<double>(r.retried_calls), "count");
    report.row(util::strf("wall/%zu", r.clients), r.wall_s, "s");
    report.gate(util::strf("goodput_pct/%zu", r.clients), r.goodput_pct, ">=",
                95.0);
    mismatches += r.mismatches;
    for (size_t a = 0; a < attempts_hist.size(); ++a) {
      attempts_hist[a] += r.attempts_hist[a];
    }
  }
  for (size_t a = 1; a < attempts_hist.size(); ++a) {
    if (attempts_hist[a] == 0 && a > 1) continue;
    report.row(util::strf("calls_by_attempts/%zu", a),
               static_cast<double>(attempts_hist[a]), "count");
  }
  report.row("faults.delayed_reads", static_cast<double>(fired.delayed_reads),
             "count");
  report.row("faults.truncated_writes",
             static_cast<double>(fired.truncated_writes), "count");
  report.row("faults.stalled_solves", static_cast<double>(fired.stalled_solves),
             "count");
  report.gate("faults.dropped_connections",
              static_cast<double>(fired.dropped_connections), ">", 0.0);
  report.gate("responses.mismatches", static_cast<double>(mismatches), "==",
              0.0);
  report.gate("degraded_plan.reproducible", reproducible ? 1.0 : 0.0, "==",
              1.0);
  report.gate("health.ok", health_ok ? 1.0 : 0.0, "==", 1.0);
  report.gate("health.shards_down", static_cast<double>(health_shards_down),
              "==", static_cast<double>(down_shards.size()));
  return report.finish();
}
