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

/// A room whose particle system is EXACTLY (a_i, b_i), bit for bit, for
/// any a_i > 0 and b_i > 0: w1 = beta = 1, w2 = 0, alpha = b_i and
/// t_max = 0 with gamma = -a_i make K_i = (0 - 0 - (-a_i)) / 1 = a_i and
/// alpha/beta = b_i without a rounding step.
inline RoomModel exact_particle_model(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  RoomModel model;
  for (size_t i = 0; i < a.size(); ++i) {
    MachineModel m;
    m.id = static_cast<int>(i);
    m.power = {1.0, 0.0};
    m.thermal.alpha = b[i];
    m.thermal.beta = 1.0;
    m.thermal.gamma = -a[i];
    m.capacity = 1000.0;
    model.machines.push_back(m);
  }
  model.cooler = {1.0, 100.0, 0.0, 0.0, -1e300};
  model.t_max = 0.0;
  model.t_ac_min = 0.0;
  model.t_ac_max = 1000.0;
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
/// owner's multiset: enumerate every pair of the given (ascending) ids,
/// p < q, for its crossing time in t > 0, sort the duplicated list,
/// collapse it, then build over those machines.
inline detail::ConsolidationTable reference_table(
    const ParticleSystem& ps, const std::vector<uint32_t>& ids) {
  std::vector<double> times;
  for (size_t x = 0; x < ids.size(); ++x) {
    for (size_t y = x + 1; y < ids.size(); ++y) {
      const uint32_t p = ids[x];
      const uint32_t q = ids[y];
      const double db = ps.b[p] - ps.b[q];
      if (db == 0.0) continue;  // parallel particles never cross
      const double t = (ps.a[p] - ps.a[q]) / db;
      if (t > 0.0 && std::isfinite(t)) times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  std::vector<double> events;
  for (const double t : times) {
    detail::ConsolidationTable::collapse_append(events, t);
  }
  detail::ConsolidationTable table;
  table.build(ps, ids, events);
  return table;
}

/// The reference build over every machine.
inline detail::ConsolidationTable reference_table(const ParticleSystem& ps) {
  std::vector<uint32_t> ids(ps.size());
  std::iota(ids.begin(), ids.end(), 0u);
  return reference_table(ps, ids);
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
