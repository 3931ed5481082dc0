// Test support for the Algorithm 1 suites: the seeded and SKU rooms they
// share, the optional- and vector-returning query shapes the assertions
// read naturally, the paper's Algorithm 2 over an on-demand allStatus
// index, the gtest comparisons against the oracle library's reference
// build (tests/oracle/consolidation.h: reference_table, the paper's
// preprocessing over every machine pair) and unpruned best-k scan, the
// comparison of masked queries with a table built over the admitted
// machines, and the cooler variants that scan's exactness argument depends
// on.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
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

/// The full ranking as values: rank_all_k_into's entries over the machines
/// `mask` admits (the whole room without one), each subset materialized by
/// make_choice_into, whose power must be the entry's.
inline std::vector<ConsolidationChoice> ranking_of(
    const IncrementalConsolidator& cons, double load,
    detail::ConsolidationTable::Mask* mask = nullptr) {
  std::vector<RankEntry> entries;
  cons.rank_all_k_into(load, entries, mask);
  std::vector<ConsolidationChoice> ranked(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    cons.table().make_choice_into(cons.particles(), cons.model(),
                                  entries[i].segment, entries[i].k, load,
                                  ranked[i], mask);
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

/// The production query against the unpruned scan, both over the machines
/// `mask` admits: same feasibility, and the same k, segment, subset and
/// doubles to the last bit.
inline void expect_best_matches_unpruned(
    const detail::ConsolidationTable& table, const ParticleSystem& ps,
    const RoomModel& model, double load,
    detail::ConsolidationTable::Mask* mask = nullptr) {
  ConsolidationChoice got;
  ConsolidationChoice want;
  const bool got_any = table.query_best_into(ps, model, load, got, mask);
  ASSERT_EQ(got_any, unpruned_best_into(table, ps, model, load, want, mask))
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
/// `ps`.
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

/// The ids `active` admits, ascending.
inline std::vector<uint32_t> admitted_ids(const std::vector<char>& active) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < active.size(); ++i) {
    if (active[i] != 0) ids.push_back(i);
  }
  return ids;
}

/// A table built over `ids` with `table`'s event list: the table a masked
/// query on `table` must answer as, bit for bit.
inline detail::ConsolidationTable survivors_table(
    const ParticleSystem& ps, const detail::ConsolidationTable& table,
    const std::vector<uint32_t>& ids) {
  detail::ConsolidationTable out;
  out.build(ps, ids, table.events);
  return out;
}

/// `table` read through `mask` against `want`, a table over the admitted
/// ids with the same event list: every segment's admitted order (the
/// subset copy at k = width) and prefix sums at every k, bit for bit.
inline void expect_masked_table_is(const ParticleSystem& ps,
                                   const detail::ConsolidationTable& table,
                                   detail::ConsolidationTable::Mask& mask,
                                   const detail::ConsolidationTable& want) {
  ASSERT_EQ(table.events, want.events);
  ASSERT_EQ(table.width(&mask), want.width());
  std::vector<size_t> order;
  for (size_t s = 0; s < table.segments.size(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    table.top_k_into(s, want.width(), order, &mask);
    EXPECT_TRUE(std::equal(order.begin(), order.end(),
                           want.segments[s].order.begin(),
                           want.segments[s].order.end()));
    for (size_t k = 0; k <= want.width(); ++k) {
      const detail::ConsolidationTable::Prefix got =
          table.prefix(ps, s, k, &mask);
      const detail::ConsolidationTable::Prefix exp = want.prefix(ps, s, k);
      ASSERT_EQ(std::bit_cast<uint64_t>(got.a), std::bit_cast<uint64_t>(exp.a))
          << "k " << k;
      ASSERT_EQ(std::bit_cast<uint64_t>(got.b), std::bit_cast<uint64_t>(exp.b))
          << "k " << k;
    }
  }
}

/// How a masked query is held against the same query on a table built over
/// the admitted machines.
enum class MaskMatch {
  /// `want` has the masked table's event list: every answer to the bit,
  /// segment indices included.
  kSameEvents,
  /// Any event list: every k, subset and double to the bit; segment
  /// indices may differ.
  kBits,
  /// Ranking entries for the same k, each power within 1e-12 relative; the
  /// head's power too, and its k and subset wherever the reference's
  /// runner-up trails it by more than 1e-9 relative.
  kGate,
};

/// Relative distance of `got` from `want` (0 when both are 0).
inline double relative_gap(double got, double want) {
  const double scale = std::max(std::abs(got), std::abs(want));
  return scale == 0.0 ? 0.0 : std::abs(got - want) / scale;
}

inline void expect_same_double(double got, double want, MaskMatch match,
                               const char* what) {
  if (match == MaskMatch::kGate) {
    EXPECT_LE(relative_gap(got, want), 1e-12)
        << what << ": " << got << " vs " << want;
  } else {
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << what << ": " << got << " vs " << want;
  }
}

/// The masked queries of `table` at `load` against the same queries on
/// `want`, a table built over the ids `mask` admits, as `match` says:
/// max_load_for_budget at three k under the head's power as the budget,
/// every ranking entry and its subset copy (top_k_into), the head scan and
/// its runner-up, and query_best_into's choice. maxL goes first, at a
/// middle k, so a cursor a previous pass left behind that k is read
/// before anything restarts it.
inline void expect_masked_queries_match(
    const ParticleSystem& ps, const RoomModel& model,
    const detail::ConsolidationTable& table,
    detail::ConsolidationTable::Mask& mask,
    const detail::ConsolidationTable& want, double load, MaskMatch match) {
  SCOPED_TRACE("load " + std::to_string(load));
  const bool same_segments = match == MaskMatch::kSameEvents;
  const size_t n = want.width();
  ASSERT_EQ(table.width(&mask), n);
  detail::ConsolidationTable::Head want_head;
  const bool found = want.scan_head(ps, model, load, want_head);

  // maxL under the head's power (any budget when nothing is feasible): the
  // bisection reads one k's prefix sums at many loads.
  const double budget = found ? want_head.power : 0.0;
  for (const size_t k : {(n + 1) / 2, n, size_t{1}}) {
    SCOPED_TRACE("maxL k " + std::to_string(k));
    const double got_l =
        table.max_load_for_budget(ps, model, budget, k, &mask);
    const double want_l = want.max_load_for_budget(ps, model, budget, k);
    if (match == MaskMatch::kGate) {
      EXPECT_LE(relative_gap(got_l, want_l), 1e-9) << got_l << " vs " << want_l;
    } else {
      expect_same_double(got_l, want_l, match, "maxL");
    }
  }

  // Then the ranking, so the head scan below starts its cursors behind
  // where the ranking left them.
  std::vector<RankEntry> got_ranked;
  std::vector<RankEntry> want_ranked;
  table.rank_all_k_into(ps, model, load, got_ranked, &mask);
  want.rank_all_k_into(ps, model, load, want_ranked);
  ASSERT_EQ(got_ranked.size(), want_ranked.size());
  if (match == MaskMatch::kGate) {
    const auto by_k = [](const RankEntry& x, const RankEntry& y) {
      return x.k < y.k;
    };
    std::sort(got_ranked.begin(), got_ranked.end(), by_k);
    std::sort(want_ranked.begin(), want_ranked.end(), by_k);
  }
  std::vector<size_t> got_subset;
  std::vector<size_t> want_subset;
  for (size_t i = 0; i < got_ranked.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const RankEntry& g = got_ranked[i];
    const RankEntry& w = want_ranked[i];
    ASSERT_EQ(g.k, w.k);
    if (same_segments) {
      EXPECT_EQ(g.segment, w.segment);
    }
    expect_same_double(g.predicted_total_power_w, w.predicted_total_power_w,
                       match, "entry power");
    if (match != MaskMatch::kGate) {
      table.top_k_into(g.segment, g.k, got_subset, &mask);
      want.top_k_into(w.segment, w.k, want_subset);
      EXPECT_EQ(got_subset, want_subset);
    }
  }

  detail::ConsolidationTable::Head got_head;
  ASSERT_EQ(table.scan_head(ps, model, load, got_head, &mask), found);
  ConsolidationChoice got_best;
  ConsolidationChoice want_best;
  ASSERT_EQ(table.query_best_into(ps, model, load, got_best, &mask), found);
  ASSERT_EQ(want.query_best_into(ps, model, load, want_best), found);
  if (!found) return;
  expect_same_double(got_head.power, want_head.power, match, "head power");
  expect_same_double(got_best.predicted_total_power_w,
                     want_best.predicted_total_power_w, match, "best power");
  const bool clear_winner =
      !want_head.has_runner_up ||
      want_head.runner_up_power - want_head.power >
          1e-9 * std::abs(want_head.power);
  if (match != MaskMatch::kGate) {
    EXPECT_EQ(got_head.k, want_head.k);
    EXPECT_EQ(got_best.k, want_best.k);
    EXPECT_EQ(got_best.on_set, want_best.on_set);
  } else if (clear_winner) {
    // The same subset; machines whose coordinates tie may be listed in
    // another order.
    EXPECT_EQ(got_head.k, want_head.k);
    std::vector<size_t> got_set = got_best.on_set;
    std::vector<size_t> want_set = want_best.on_set;
    std::sort(got_set.begin(), got_set.end());
    std::sort(want_set.begin(), want_set.end());
    EXPECT_EQ(got_set, want_set);
  }
  if (match != MaskMatch::kGate) {
    EXPECT_EQ(got_head.has_runner_up, want_head.has_runner_up);
    if (got_head.has_runner_up && want_head.has_runner_up) {
      expect_same_double(got_head.runner_up_power, want_head.runner_up_power,
                         match, "runner-up power");
    }
    expect_same_double(got_best.t_param, want_best.t_param, match, "t_param");
  }
  if (same_segments) {
    EXPECT_EQ(got_head.segment, want_head.segment);
    EXPECT_EQ(got_best.segment, want_best.segment);
  }
}

}  // namespace coolopt::core::test_support
