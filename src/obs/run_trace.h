// Structured per-run telemetry: what happened inside a simulation/
// optimization run, as machine-readable series rather than printed finals.
//
// Three streams, matching the paper's evaluation artifacts:
//   * steps   — per-timestep simulator state (T_ac, P_ac, aggregate P_IT,
//               optionally per-server L_i / P_i / T_cpu_i), recorded by
//               MachineRoom::step() and settle() when a trace is attached;
//   * solves  — one record per optimizer solve (closed form /
//               consolidation query) with iteration counts and residuals;
//   * events  — discrete control actions (set-point changes, watchdog
//               interventions, adaptive replans).
//
// Export: one JSON object (schema documented in docs/observability.md) and
// per-stream CSV via util/csv.h. Thread-safe appends; streams are bounded
// (drop-oldest-free: beyond the cap new samples are counted but dropped, so
// a runaway transient cannot exhaust memory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace coolopt::obs {

class JsonWriter;

struct TraceOptions {
  /// Record per-server load/power/CPU-temperature vectors in each step
  /// sample (the paper's Fig. 6-style event tables need them; disable for
  /// very long transients on big rooms).
  bool per_server = true;
  size_t max_steps = 200000;
  size_t max_solves = 200000;
  size_t max_events = 200000;
};

/// One simulator timestep (or steady-state settle).
struct StepSample {
  double time_s = 0.0;
  bool steady = false;       ///< true: settle(); false: transient step()
  double t_ac_c = 0.0;       ///< CRAC supply temperature
  double t_return_c = 0.0;   ///< room/return temperature
  double p_ac_w = 0.0;       ///< CRAC electric draw
  double p_it_w = 0.0;       ///< aggregate server draw
  double p_total_w = 0.0;
  double peak_cpu_c = 0.0;   ///< hottest ON CPU (ambient if none ON)
  // Parallel per-server series; empty when TraceOptions::per_server is off.
  std::vector<double> server_load_files_s;
  std::vector<double> server_power_w;
  std::vector<double> server_cpu_c;
};

/// One optimizer solve.
struct SolveSample {
  std::string solver;        ///< "closed_form", "consolidation.query", ...
  uint64_t n = 0;            ///< problem size (machines considered)
  double solve_us = 0.0;
  bool feasible = true;
  double residual = 0.0;     ///< KKT/constraint violation residual
};

/// One discrete control action.
struct EventSample {
  double time_s = 0.0;
  std::string kind;          ///< e.g. "setpoint", "watchdog.intervention"
  double value = 0.0;        ///< the action's scalar (new set point, demand...)
  std::string detail;
};

class RunTrace {
 public:
  explicit RunTrace(TraceOptions options = {});
  RunTrace(const RunTrace&) = delete;
  RunTrace& operator=(const RunTrace&) = delete;

  void record_step(StepSample sample);
  void record_solve(SolveSample sample);
  void record_event(EventSample sample);

  const TraceOptions& options() const { return options_; }

  // Accessors copy under the lock; traces are small and reads are rare.
  std::vector<StepSample> steps() const;
  std::vector<SolveSample> solves() const;
  std::vector<EventSample> events() const;
  size_t step_count() const;
  size_t dropped_steps() const;

  /// Emits {"steps":[...],"solves":[...],"events":[...],"dropped_steps":n}
  /// into an in-flight writer.
  void write_json(JsonWriter& w) const;
  /// The same object as a standalone JSON document.
  void to_json(std::ostream& os) const;

  /// Per-timestep series as CSV (aggregate columns only; per-server
  /// vectors are JSON-export-only).
  void steps_to_csv(std::ostream& os) const;

 private:
  TraceOptions options_;
  mutable std::mutex mu_;
  std::vector<StepSample> steps_;
  std::vector<SolveSample> solves_;
  std::vector<EventSample> events_;
  size_t dropped_steps_ = 0;
  size_t dropped_solves_ = 0;
  size_t dropped_events_ = 0;
};

}  // namespace coolopt::obs
