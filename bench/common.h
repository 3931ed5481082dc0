// Shared plumbing for the figure-reproduction binaries: one standard
// evaluation configuration (the 20-machine testbed stand-in), scenario-sweep
// tables in the layout of the paper's figures, and optional CSV export via
// the COOLOPT_BENCH_CSV_DIR environment variable.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "control/eval_engine.h"
#include "obs/session.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

namespace coolopt::benchsup {

/// The standard evaluation campaign: 20 machines, fixed seed, 1 K planning
/// margin, steady-state runs.
inline control::EvalOptions standard_options(uint64_t seed = 42) {
  control::EvalOptions options;
  options.room.num_servers = 20;
  options.room.seed = seed;
  return options;
}

/// Measured total power for a set of scenarios across the paper's load
/// axis. Rows keyed by (scenario number, load in basis points): keying by
/// a truncated integer percent silently collided fractional loads (12.5
/// and 12.9 both landed on 12).
struct SweepTable {
  std::vector<core::Scenario> scenarios;
  std::vector<double> loads;
  std::map<std::pair<int, long long>, control::EvalPoint> points;

  /// Load axis key: basis points (hundredths of a percent), exact for any
  /// axis anyone plots.
  static long long load_key(double load_pct) {
    return std::llround(load_pct * 100.0);
  }

  const control::EvalPoint& at(int scenario_number, double load_pct) const {
    return points.at({scenario_number, load_key(load_pct)});
  }
};

inline SweepTable run_sweep(control::EvalEngine& eval,
                            const std::vector<core::Scenario>& scenarios,
                            const std::vector<double>& loads) {
  SweepTable table;
  table.scenarios = scenarios;
  table.loads = loads;
  // One parallel, memoized sweep through the shared EvalEngine —
  // scenario-major, bit-for-bit what the serial measure() loop returns.
  std::vector<control::EvalPoint> rows = eval.sweep(scenarios, loads);
  size_t r = 0;
  for (const core::Scenario& s : scenarios) {
    for (const double pct : loads) {
      table.points.emplace(std::make_pair(s.number, SweepTable::load_key(pct)),
                           std::move(rows[r++]));
    }
  }
  return table;
}

/// Prints the figure's series: one row per load, one column per scenario
/// (total measured power, W — the paper's y-axis).
inline void print_power_table(const SweepTable& table, const char* title) {
  std::printf("%s\n", title);
  std::vector<std::string> columns{"load %"};
  for (const core::Scenario& s : table.scenarios) columns.push_back(s.name());
  util::TextTable out(columns);
  for (const double pct : table.loads) {
    std::vector<std::string> row{util::strf("%.0f", pct)};
    for (const core::Scenario& s : table.scenarios) {
      const control::EvalPoint& p = table.at(s.number, pct);
      row.push_back(p.feasible
                        ? util::strf("%.0f", p.measurement.total_power_w)
                        : std::string("infeasible"));
    }
    out.row(std::move(row));
  }
  std::printf("%s\n", out.render().c_str());
}

/// Writes the sweep as CSV when COOLOPT_BENCH_CSV_DIR is set.
inline void maybe_export_csv(const SweepTable& table, const char* name) {
  const char* dir = std::getenv("COOLOPT_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = util::strf("%s/%s.csv", dir, name);
  util::CsvWriter w(path, {"scenario", "load_pct", "total_w", "it_w", "crac_w",
                           "machines_on", "t_ac_c", "peak_cpu_c", "violation"});
  for (const core::Scenario& s : table.scenarios) {
    for (const double pct : table.loads) {
      const control::EvalPoint& p = table.at(s.number, pct);
      if (!p.feasible) continue;
      w.row({s.name(), util::strf("%.0f", pct),
             util::strf("%.1f", p.measurement.total_power_w),
             util::strf("%.1f", p.measurement.it_power_w),
             util::strf("%.1f", p.measurement.crac_power_w),
             util::strf("%zu", p.measurement.machines_on),
             util::strf("%.2f", p.measurement.t_ac_achieved_c),
             util::strf("%.2f", p.measurement.peak_cpu_temp_c),
             p.measurement.temp_violation ? "1" : "0"});
    }
  }
  std::printf("(CSV written to %s)\n", path.c_str());
}

/// Percent saving of `ours` relative to `theirs`.
inline double saving_pct(double theirs, double ours) {
  return 100.0 * (theirs - ours) / theirs;
}

/// Average measured total power of one scenario across the loads.
inline double average_power(const SweepTable& table, int scenario_number) {
  double sum = 0.0;
  size_t n = 0;
  for (const double pct : table.loads) {
    const control::EvalPoint& p = table.at(scenario_number, pct);
    if (!p.feasible) continue;
    sum += p.measurement.total_power_w;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace coolopt::benchsup
