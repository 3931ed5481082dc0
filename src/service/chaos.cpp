#include "service/chaos.h"

#include "obs/obs.h"

namespace coolopt::service {

ChaosInjector::Hook::Hook(uint64_t seed, const char* label, double pct)
    : rng(util::Rng(seed).fork(label)), probability(pct / 100.0) {}

ChaosInjector::ChaosInjector(const ChaosOptions& options)
    : options_(options),
      drop_(options.seed, "chaos.drop_connection", options.drop_connection_pct),
      delay_(options.seed, "chaos.delay_read", options.delay_read_pct),
      truncate_(options.seed, "chaos.truncate_write",
                options.truncate_write_pct),
      stall_(options.seed, "chaos.stall_solve", options.stall_solve_pct) {}

bool ChaosInjector::Hook::fire() {
  std::lock_guard<std::mutex> lock(mu);
  return rng.chance(probability);
}

// Each site names its metric literally: tools/check_metrics.sh greps for
// every catalog row at an obs::count call.

bool ChaosInjector::drop_connection() {
  if (!drop_.fire()) return false;
  obs::count("service.chaos.dropped_connections",
             &fired_.dropped_connections);
  return true;
}

bool ChaosInjector::delay_read(uint64_t& delay_ms) {
  if (!delay_.fire()) return false;
  obs::count("service.chaos.delayed_reads", &fired_.delayed_reads);
  delay_ms = options_.delay_read_ms;
  return true;
}

bool ChaosInjector::truncate_write() {
  if (!truncate_.fire()) return false;
  obs::count("service.chaos.truncated_writes", &fired_.truncated_writes);
  return true;
}

bool ChaosInjector::stall_solve(uint64_t& stall_ms) {
  if (!stall_.fire()) return false;
  obs::count("service.chaos.stalled_solves", &fired_.stalled_solves);
  stall_ms = options_.stall_solve_ms;
  return true;
}

ChaosInjector::Counters ChaosInjector::counters() const {
  Counters c;
  c.dropped_connections = obs::load_counter(fired_.dropped_connections);
  c.delayed_reads = obs::load_counter(fired_.delayed_reads);
  c.truncated_writes = obs::load_counter(fired_.truncated_writes);
  c.stalled_solves = obs::load_counter(fired_.stalled_solves);
  return c;
}

}  // namespace coolopt::service
