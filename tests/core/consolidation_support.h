// Test support for the Algorithm 1 suites: the optional-returning query
// shapes the assertions read naturally, the paper's Algorithm 2 over an
// on-demand allStatus index, and an independent reference build of the
// table (the paper's preprocessing verbatim) for byte-for-byte checks.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/consolidation_table.h"
#include "core/incremental.h"
#include "core/model.h"

namespace coolopt::core::test_support {

/// Builds a RoomModel whose particle system is (a_i, b_i) up to rounding:
/// the inverse of the Eq. 23 reduction, for testing against paper examples.
inline RoomModel model_from_particles(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  RoomModel model;
  const double w1 = 1.0;
  const double w2 = 1.0;
  const double t_max = 50.0;
  for (size_t i = 0; i < a.size(); ++i) {
    MachineModel m;
    m.id = static_cast<int>(i);
    m.power = {w1, w2};
    m.thermal.alpha = 1.0;
    m.thermal.beta = 1.0 / b[i];
    m.thermal.gamma = t_max - m.thermal.beta * w2 - a[i] * m.thermal.beta * w1;
    m.capacity = 1000.0;
    model.machines.push_back(m);
  }
  model.cooler = {1.0, 100.0, 0.0, 0.0, -1e300};
  model.t_max = t_max;
  model.t_ac_min = 0.0;
  model.t_ac_max = 1000.0;  // effectively unbounded, as in the paper
  model.validate();
  return model;
}

/// The exact query as an optional: query_best_into's winner, or nullopt.
inline std::optional<ConsolidationChoice> best_of(
    const IncrementalConsolidator& cons, double load) {
  ConsolidationChoice choice;
  if (!cons.query_best_into(load, choice)) return std::nullopt;
  return choice;
}

/// The paper's Algorithm 2 against an allStatus index built on demand.
inline std::optional<ConsolidationChoice> paper_query(
    const IncrementalConsolidator& cons, double load) {
  const detail::ConsolidationTable& table = cons.table();
  return table.query_paper(cons.particles(), cons.model(), table.all_status(),
                           load);
}

/// Algorithm 1 as the paper states it, independent of the incremental
/// owner's multiset: enumerate every pair's crossing time in t > 0, sort
/// the duplicated list, collapse it, then build over every machine.
inline detail::ConsolidationTable reference_table(const ParticleSystem& ps) {
  const size_t n = ps.size();
  std::vector<double> times;
  for (size_t p = 0; p < n; ++p) {
    for (size_t q = p + 1; q < n; ++q) {
      const double db = ps.b[p] - ps.b[q];
      if (db == 0.0) continue;  // parallel particles never cross
      const double t = (ps.a[p] - ps.a[q]) / db;
      if (t > 0.0 && std::isfinite(t)) times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  detail::ConsolidationTable table;
  table.build(ps, ids, detail::ConsolidationTable::collapse_events(times));
  return table;
}

/// Exact double equality throughout: two routes to the same table must
/// agree to the last bit, not within a tolerance.
inline void expect_tables_identical(const detail::ConsolidationTable& a,
                                    const detail::ConsolidationTable& b) {
  ASSERT_EQ(a.events, b.events);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    EXPECT_EQ(a.segments[s].start, b.segments[s].start);
    EXPECT_EQ(a.segments[s].order_time, b.segments[s].order_time);
    EXPECT_EQ(a.segments[s].order, b.segments[s].order);
    EXPECT_EQ(a.segments[s].prefix_a, b.segments[s].prefix_a);
    EXPECT_EQ(a.segments[s].prefix_b, b.segments[s].prefix_b);
  }
}

}  // namespace coolopt::core::test_support
