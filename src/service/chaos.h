// ChaosInjector — the service's deterministic fault-injection seam.
//
// Injected at server construction (like pause_dispatch, a seam rather
// than a config knob most deployments touch), it lets the chaos tests and
// bench/perf_chaos subject a real PlanningService to the failure modes a
// production fleet actually sees: accepted connections dropped before a
// byte is served, reads delayed, response frames truncated mid-write, and
// solves stalled on the worker.
//
// Every decision draws from a per-hook stream forked off one seed
// (util::Rng::fork), so adding a fault type never reshuffles another's
// sequence and a campaign replays identically for a fixed seed and
// arrival order. The injector never corrupts payload bytes — a truncated
// frame is a *shorter* prefix of the correct response followed by a
// socket shutdown, so a surviving response is always byte-identical to
// the direct engine call and a damaged one is always detectable (EOF or
// timeout, never a silently wrong plan).
#pragma once

#include <cstdint>
#include <mutex>

#include "util/rng.h"

namespace coolopt::service {

/// Fault probabilities in percent (1.0 == 1% of opportunities). All zero
/// by default: a default-constructed options object disables the seam and
/// the server behaves — and emits bytes — exactly as without chaos.
struct ChaosOptions {
  uint64_t seed = 1;
  double drop_connection_pct = 0.0;  ///< close accepted connections unserved
  double delay_read_pct = 0.0;       ///< sleep before handling received bytes
  uint64_t delay_read_ms = 5;
  double truncate_write_pct = 0.0;   ///< cut a response mid-frame, then close
  double stall_solve_pct = 0.0;      ///< sleep on the worker before solving
  uint64_t stall_solve_ms = 5;

  bool enabled() const {
    return drop_connection_pct > 0.0 || delay_read_pct > 0.0 ||
           truncate_write_pct > 0.0 || stall_solve_pct > 0.0;
  }
};

class ChaosInjector {
 public:
  explicit ChaosInjector(const ChaosOptions& options);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// Hook predicates, called by the server at each fault opportunity.
  /// Thread-safe; each draws from its own locked stream and counts the
  /// faults it fires (mirrored as the service.chaos.* metrics).
  bool drop_connection();
  bool delay_read(uint64_t& delay_ms);
  bool truncate_write();
  bool stall_solve(uint64_t& stall_ms);

  struct Counters {
    uint64_t dropped_connections = 0;
    uint64_t delayed_reads = 0;
    uint64_t truncated_writes = 0;
    uint64_t stalled_solves = 0;
  };
  Counters counters() const;

  const ChaosOptions& options() const { return options_; }

 private:
  /// One fault type: its own stream, forked off the seed under `label`,
  /// and its own lock, so hooks never contend or reshuffle each other.
  struct Hook {
    Hook(uint64_t seed, const char* label, double pct);
    /// One locked draw: true when the fault fires at this opportunity.
    bool fire();

    std::mutex mu;
    util::Rng rng;
    double probability;
  };

  ChaosOptions options_;
  Hook drop_;
  Hook delay_;
  Hook truncate_;
  Hook stall_;
  Counters fired_;  ///< bumped by obs::count, read by counters()
};

}  // namespace coolopt::service
