// Test support for the consolidation suites: the seeded and SKU rooms they
// share, the optional- and vector-returning query shapes the assertions
// read naturally, the paper's Algorithm 2 over an on-demand allStatus
// index, the gtest comparisons against the oracle library's reference
// table (tests/oracle/consolidation.h: reference_table, the paper's
// Algorithm 1 over every machine pair) and unpruned best-k scan, the
// comparison of masked queries with the same queries on a room of the
// admitted machines, and the cooler variants that scan's exactness
// argument depends on.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/class_selector.h"
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
/// `view` admits (the whole room without one), each subset materialized by
/// make_choice_into, whose power must be the entry's.
inline std::vector<ConsolidationChoice> ranking_of(
    const IncrementalConsolidator& cons, double load,
    IncrementalConsolidator::View* view = nullptr) {
  std::vector<RankEntry> entries;
  cons.rank_all_k_into(load, entries, view);
  std::vector<ConsolidationChoice> ranked(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    cons.table().make_choice_into(cons.particles(), cons.model(),
                                  entries[i].t, entries[i].k, load, ranked[i],
                                  view);
    EXPECT_EQ(std::bit_cast<uint64_t>(ranked[i].predicted_total_power_w),
              std::bit_cast<uint64_t>(entries[i].predicted_total_power_w))
        << "entry " << i << " at load " << load;
  }
  return ranked;
}

/// The paper's Algorithm 2 against the reference table and its allStatus
/// index, both built on demand.
inline std::optional<ConsolidationChoice> paper_query(
    const IncrementalConsolidator& cons, double load) {
  const ConsolidationTable table = reference_table(cons.particles());
  return query_paper(table, cons.particles(), cons.model(), all_status(table),
                     load);
}

/// The production query against the unpruned scan, both over the machines
/// `view` admits: same feasibility, and the same k, subset and doubles to
/// the last bit.
inline void expect_best_matches_unpruned(
    const detail::ClassSelector& select, const ParticleSystem& ps,
    const RoomModel& model, double load,
    detail::ClassSelector::View* view = nullptr) {
  ConsolidationChoice got;
  ConsolidationChoice want;
  const bool got_any = select.query_best_into(ps, model, load, got, view);
  ASSERT_EQ(got_any, unpruned_best_into(select, ps, model, load, want, view))
      << "load " << load;
  if (!got_any) return;
  EXPECT_EQ(got.k, want.k) << "load " << load;
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

/// The ids `active` admits, ascending.
inline std::vector<uint32_t> admitted_ids(const std::vector<char>& active) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < active.size(); ++i) {
    if (active[i] != 0) ids.push_back(i);
  }
  return ids;
}

/// A room of the machines `active` admits, in index order: machine j of it
/// is machine ids[j] of `room`.
inline RoomModel survivors_room(const RoomModel& room,
                                const std::vector<uint32_t>& ids) {
  RoomModel out = room;
  out.machines.clear();
  for (const uint32_t i : ids) out.machines.push_back(room.machines[i]);
  return out;
}

/// Relative distance of `got` from `want` (0 when both are 0).
inline double relative_gap(double got, double want) {
  const double scale = std::max(std::abs(got), std::abs(want));
  return scale == 0.0 ? 0.0 : std::abs(got - want) / scale;
}

inline void expect_same_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

/// `subset` (indices into the survivors' room) in the full room's indices.
inline std::vector<size_t> mapped(const std::vector<size_t>& subset,
                                  const std::vector<uint32_t>& ids) {
  std::vector<size_t> out;
  for (const size_t j : subset) out.push_back(ids[j]);
  return out;
}

/// A masked query against its survivors' own: every query of `full`'s
/// selector through `view` (which admits `ids`) answers, bit for bit with
/// indices mapped back, what the same query answers on `own`, a
/// consolidator over survivors_room(ids): maxL at three k under the head's
/// power as the budget, every ranking entry and its subset, the head scan
/// and its runner-up, and query_best_into's choice.
inline void expect_view_is_survivors_query(
    const IncrementalConsolidator& full, IncrementalConsolidator::View& view,
    const IncrementalConsolidator& own, const std::vector<uint32_t>& ids,
    double load) {
  SCOPED_TRACE("load " + std::to_string(load));
  const detail::ClassSelector& sel = full.table();
  const detail::ClassSelector& want = own.table();
  const ParticleSystem& ps = full.particles();
  const ParticleSystem& own_ps = own.particles();
  const size_t n = ids.size();
  ASSERT_EQ(sel.width(&view), n);
  detail::ClassSelector::Head want_head;
  const bool found = want.scan_head(own_ps, own.model(), load, want_head);

  const double budget = found ? want_head.power : 0.0;
  for (const size_t k : {(n + 1) / 2, n, size_t{1}}) {
    SCOPED_TRACE("maxL k " + std::to_string(k));
    expect_same_bits(
        sel.max_load_for_budget(ps, full.model(), budget, k, &view),
        want.max_load_for_budget(own_ps, own.model(), budget, k), "maxL");
  }

  std::vector<RankEntry> got_ranked;
  std::vector<RankEntry> want_ranked;
  sel.rank_all_k_into(ps, full.model(), load, got_ranked, &view);
  want.rank_all_k_into(own_ps, own.model(), load, want_ranked);
  ASSERT_EQ(got_ranked.size(), want_ranked.size());
  std::vector<size_t> got_subset;
  std::vector<size_t> want_subset;
  for (size_t i = 0; i < got_ranked.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const RankEntry& g = got_ranked[i];
    const RankEntry& w = want_ranked[i];
    ASSERT_EQ(g.k, w.k);
    expect_same_bits(g.t, w.t, "entry t");
    expect_same_bits(g.predicted_total_power_w, w.predicted_total_power_w,
                     "entry power");
    sel.top_k_into(g.t, g.k, got_subset, &view);
    want.top_k_into(w.t, w.k, want_subset);
    EXPECT_EQ(got_subset, mapped(want_subset, ids));
  }

  detail::ClassSelector::Head got_head;
  ASSERT_EQ(sel.scan_head(ps, full.model(), load, got_head, &view), found);
  ConsolidationChoice got_best;
  ConsolidationChoice want_best;
  ASSERT_EQ(sel.query_best_into(ps, full.model(), load, got_best, &view),
            found);
  ASSERT_EQ(want.query_best_into(own_ps, own.model(), load, want_best), found);
  if (!found) return;
  EXPECT_EQ(got_head.k, want_head.k);
  expect_same_bits(got_head.t, want_head.t, "head t");
  expect_same_bits(got_head.power, want_head.power, "head power");
  EXPECT_EQ(got_head.has_runner_up, want_head.has_runner_up);
  if (got_head.has_runner_up && want_head.has_runner_up) {
    expect_same_bits(got_head.runner_up_power, want_head.runner_up_power,
                     "runner-up power");
  }
  EXPECT_EQ(got_best.k, want_best.k);
  EXPECT_EQ(got_best.on_set, mapped(want_best.on_set, ids));
  expect_same_bits(got_best.t_param, want_best.t_param, "t_param");
  expect_same_bits(got_best.predicted_total_power_w,
                   want_best.predicted_total_power_w, "best power");
}

/// The select's listing of one subset against the table's, position by
/// position: wherever the two name different machines, those machines'
/// coordinates at the operating time t must tie to 1e-9 of the
/// coordinates' scale. Both list the top k in descending coordinate order,
/// so this admits another order only among tied machines, and another set
/// only across a tie at the k-th place. (Exact agreement cannot be asked
/// there: at a crossing the select sorts at t itself, the table at its
/// segment's midpoint with rounded coordinates and the id as tie-break.)
/// Returns whether the listings differ.
inline bool expect_same_listing_up_to_ties(const ParticleSystem& ps,
                                           const std::vector<size_t>& got,
                                           const std::vector<size_t>& want,
                                           double t) {
  if (got == want) return false;
  EXPECT_EQ(got.size(), want.size());
  if (got.size() != want.size()) return true;
  double scale = 0.0;
  for (const std::vector<size_t>* list : {&got, &want}) {
    for (const size_t i : *list) {
      scale = std::max({scale, std::abs(ps.a[i]), std::abs(ps.b[i] * t)});
    }
  }
  for (size_t p = 0; p < got.size(); ++p) {
    if (got[p] == want[p]) continue;
    EXPECT_LE(std::abs(ps.coordinate(got[p], t) - ps.coordinate(want[p], t)),
              1e-9 * scale)
        << "place " << p << " lists machine " << got[p] << " for "
        << want[p] << " at t " << t << " without a tie";
  }
  return true;
}

/// ROADMAP item 2's gate: the select (through `view` when given) against
/// `table`, the reference build over the same machines, at this load. The
/// same feasible k, each listed as the table lists it up to machines tied
/// at the operating time (expect_same_listing_up_to_ties), powers within
/// 1e-12 relative, maxL within 1e-9 relative; the head's k, and its
/// listing likewise, wherever the table's runner-up trails by more than
/// 1e-9 relative. Returns how many k were listed otherwise on a tie: the
/// callers bound it (none at generic loads on generic rooms, at most the
/// one k a segment-boundary load puts on a crossing).
inline size_t expect_select_matches_table(
    const detail::ClassSelector& sel, detail::ClassSelector::View* view,
    const ParticleSystem& ps, const RoomModel& model,
    const ConsolidationTable& table, double load) {
  SCOPED_TRACE("load " + std::to_string(load));
  size_t ties = 0;
  std::vector<RankEntry> got_ranked;
  std::vector<RankEntry> want_ranked;
  sel.rank_all_k_into(ps, model, load, got_ranked, view);
  table.rank_all_k_into(ps, model, load, want_ranked);
  EXPECT_EQ(got_ranked.size(), want_ranked.size());
  if (got_ranked.size() != want_ranked.size()) return ties;
  const auto by_k = [](const RankEntry& x, const RankEntry& y) {
    return x.k < y.k;
  };
  std::sort(got_ranked.begin(), got_ranked.end(), by_k);
  std::sort(want_ranked.begin(), want_ranked.end(), by_k);
  std::vector<size_t> got_subset;
  std::vector<size_t> want_subset;
  for (size_t i = 0; i < got_ranked.size(); ++i) {
    const RankEntry& g = got_ranked[i];
    const RankEntry& w = want_ranked[i];
    EXPECT_EQ(g.k, w.k);
    EXPECT_LE(relative_gap(g.predicted_total_power_w,
                           w.predicted_total_power_w),
              1e-12)
        << "k " << g.k << ": " << g.predicted_total_power_w << " vs "
        << w.predicted_total_power_w;
    sel.top_k_into(g.t, g.k, got_subset, view);
    table.top_k_into(w.t, w.k, want_subset);
    if (expect_same_listing_up_to_ties(ps, got_subset, want_subset, w.t)) {
      ++ties;
    }
  }

  ConsolidationTable::Head want_head;
  detail::ClassSelector::Head got_head;
  const bool found = table.scan_head(ps, model, load, want_head);
  EXPECT_EQ(sel.scan_head(ps, model, load, got_head, view), found);
  if (!found) return ties;
  EXPECT_LE(relative_gap(got_head.power, want_head.power), 1e-12);
  const bool clear_winner =
      !want_head.has_runner_up ||
      want_head.runner_up_power - want_head.power >
          1e-9 * std::abs(want_head.power);
  if (clear_winner) {
    EXPECT_EQ(got_head.k, want_head.k);
    ConsolidationChoice got_best;
    ConsolidationChoice want_best;
    sel.query_best_into(ps, model, load, got_best, view);
    table.query_best_into(ps, model, load, want_best);
    // The head's listing is its k's ranking entry's, counted above.
    EXPECT_EQ(got_best.k, want_best.k);
    if (got_best.k == want_best.k) {
      expect_same_listing_up_to_ties(ps, got_best.on_set, want_best.on_set,
                                     want_best.t_param);
    }
  }
  const size_t n = table.width();
  for (const size_t k : {(n + 1) / 2, n, size_t{1}}) {
    const double got_l =
        sel.max_load_for_budget(ps, model, want_head.power, k, view);
    const double want_l =
        table.max_load_for_budget(ps, model, want_head.power, k);
    EXPECT_LE(relative_gap(got_l, want_l), 1e-9)
        << "maxL k " << k << ": " << got_l << " vs " << want_l;
  }
  return ties;
}

}  // namespace coolopt::core::test_support
