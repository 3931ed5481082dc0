// Test support for the Algorithm 1 suites: the seeded and SKU rooms they
// share, the optional- and vector-returning query shapes the assertions
// read naturally, the paper's Algorithm 2 over an on-demand allStatus
// index, the gtest comparisons against the oracle library's reference
// build (tests/oracle/consolidation.h: reference_table, the paper's
// preprocessing over every machine pair) and unpruned best-k scan, and the
// cooler variants that scan's exactness argument depends on.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/consolidation_table.h"
#include "core/incremental.h"
#include "core/model.h"
#include "core/synthetic.h"
#include "tests/oracle/consolidation.h"
#include "util/rng.h"

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

/// The synthetic room of this seed (uniform w1/w2, distinct machines).
inline RoomModel seeded_room(size_t n, uint64_t seed) {
  SyntheticModelOptions o;
  o.machines = n;
  o.seed = seed;
  return make_synthetic_model(o);
}

/// The cooloptd benchmark's room layout: eight machine classes (the
/// synthetic draws of seed 42), equal shares laid out over the slots in
/// seeded order, capacities tripled.
inline RoomModel sku_room(size_t n, uint64_t seed) {
  constexpr size_t kSkus = 8;
  RoomModel model = seeded_room(std::max(n, kSkus), 42);
  std::vector<size_t> classes(n);
  for (size_t i = 0; i < n; ++i) classes[i] = i % kSkus;
  util::Rng(seed).fork("room").shuffle(classes);
  const std::vector<MachineModel> skus(model.machines.begin(),
                                       model.machines.begin() + kSkus);
  model.machines.resize(n);
  for (size_t i = 0; i < n; ++i) {
    model.machines[i] = skus[classes[i]];
    model.machines[i].id = static_cast<int>(i);
    model.machines[i].capacity *= 3.0;
  }
  return model;
}

/// The exact query as an optional: query_best_into's winner, or nullopt.
inline std::optional<ConsolidationChoice> best_of(
    const IncrementalConsolidator& cons, double load) {
  ConsolidationChoice choice;
  if (!cons.query_best_into(load, choice)) return std::nullopt;
  return choice;
}

/// The full ranking as values: rank_all_k_into's entries, each subset
/// materialized by make_choice_into, whose power must be the entry's.
inline std::vector<ConsolidationChoice> ranking_of(
    const IncrementalConsolidator& cons, double load) {
  std::vector<RankEntry> entries;
  cons.rank_all_k_into(load, entries);
  std::vector<ConsolidationChoice> ranked(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    cons.table().make_choice_into(cons.particles(), cons.model(),
                                  entries[i].segment, entries[i].k, load,
                                  ranked[i]);
    EXPECT_EQ(std::bit_cast<uint64_t>(ranked[i].predicted_total_power_w),
              std::bit_cast<uint64_t>(entries[i].predicted_total_power_w))
        << "entry " << i << " at load " << load;
  }
  return ranked;
}

/// The paper's Algorithm 2 against an allStatus index built on demand.
inline std::optional<ConsolidationChoice> paper_query(
    const IncrementalConsolidator& cons, double load) {
  const detail::ConsolidationTable& table = cons.table();
  return query_paper(table, cons.particles(), cons.model(),
                     all_status(table, cons.particles()), load);
}

/// The production query against the unpruned scan: same feasibility, and
/// the same k, segment, subset and doubles to the last bit.
inline void expect_best_matches_unpruned(const detail::ConsolidationTable& table,
                                         const ParticleSystem& ps,
                                         const RoomModel& model, double load) {
  ConsolidationChoice got;
  ConsolidationChoice want;
  const bool got_any = table.query_best_into(ps, model, load, got);
  ASSERT_EQ(got_any, unpruned_best_into(table, ps, model, load, want))
      << "load " << load;
  if (!got_any) return;
  EXPECT_EQ(got.k, want.k) << "load " << load;
  EXPECT_EQ(got.segment, want.segment) << "load " << load;
  EXPECT_EQ(got.on_set, want.on_set) << "load " << load;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.t_param),
            std::bit_cast<uint64_t>(want.t_param)) << "load " << load;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.predicted_total_power_w),
            std::bit_cast<uint64_t>(want.predicted_total_power_w))
      << "load " << load;
}

/// Cooler and idle-draw variants the power floor's exactness argument
/// rests on: the fitted default (q_coeff > 0), no IT-heat term, a negative
/// one (the floor must prune nothing), a min_power_w floor that binds for
/// warm air, and machines with no idle draw.
enum class CoolerVariant {
  kDefault,
  kNoHeatTerm,
  kNegativeHeatTerm,
  kMinPowerFloor,
  kZeroIdle,
};

inline constexpr CoolerVariant kCoolerVariants[] = {
    CoolerVariant::kDefault, CoolerVariant::kNoHeatTerm,
    CoolerVariant::kNegativeHeatTerm, CoolerVariant::kMinPowerFloor,
    CoolerVariant::kZeroIdle};

inline std::string to_string(CoolerVariant v) {
  switch (v) {
    case CoolerVariant::kDefault: return "default";
    case CoolerVariant::kNoHeatTerm: return "q_coeff = 0";
    case CoolerVariant::kNegativeHeatTerm: return "q_coeff < 0";
    case CoolerVariant::kMinPowerFloor: return "min_power_w";
    case CoolerVariant::kZeroIdle: return "w2 = 0";
  }
  return "?";
}

inline RoomModel with_cooler(RoomModel model, CoolerVariant v) {
  CoolerModel& c = model.cooler;
  switch (v) {
    case CoolerVariant::kDefault:
      break;
    case CoolerVariant::kNoHeatTerm:
      c.q_coeff = 0.0;
      break;
    case CoolerVariant::kNegativeHeatTerm:
      c.q_coeff = -0.4;
      break;
    case CoolerVariant::kMinPowerFloor: {
      // Binds whenever the supply air runs warmer than the actuation
      // midpoint at a third of the room's IT heat.
      double it_heat = 0.0;
      for (const MachineModel& m : model.machines) {
        it_heat += m.power.w2 + m.power.w1 * m.capacity;
      }
      c.min_power_w =
          c.predict(0.5 * (model.t_ac_min + model.t_ac_max), it_heat / 3.0);
      break;
    }
    case CoolerVariant::kZeroIdle:
      for (MachineModel& m : model.machines) m.power.w2 = 0.0;
      break;
  }
  model.validate();
  return model;
}

/// Exact double equality throughout: two routes to the same table must
/// agree to the last bit, not within a tolerance. Both tables are over
/// `ps`; prefix sums are read through the folding accessor, so a table with
/// stale tails compares by the values its queries would read.
inline void expect_tables_identical(const ParticleSystem& ps,
                                    const detail::ConsolidationTable& a,
                                    const detail::ConsolidationTable& b) {
  ASSERT_EQ(a.events, b.events);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  ASSERT_EQ(a.width(), b.width());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    EXPECT_EQ(a.segments[s].start, b.segments[s].start);
    EXPECT_EQ(a.segments[s].order_time, b.segments[s].order_time);
    EXPECT_EQ(a.segments[s].order, b.segments[s].order);
    std::vector<double> a_sums;
    std::vector<double> b_sums;
    for (size_t k = 0; k <= a.width(); ++k) {
      const detail::ConsolidationTable::Prefix pa = a.prefix(ps, s, k);
      const detail::ConsolidationTable::Prefix pb = b.prefix(ps, s, k);
      a_sums.insert(a_sums.end(), {pa.a, pa.b});
      b_sums.insert(b_sums.end(), {pb.a, pb.b});
    }
    EXPECT_EQ(a_sums, b_sums);
  }
}

}  // namespace coolopt::core::test_support
