// Operating-time edge coverage — the points the engine's consolidation
// walk reads its head subset at.
//
// Loads exactly AT the reference table's segment breakpoints are the worst
// case for the select: the root of g_k sits on a crossing, where the top-k
// set changes. These tests pin that every query path resolves the same
// (k, t) bit for bit — query_best_into against the full ranking's head —
// that each entry's time is the root of its own subset's line, and that
// the select holds the oracle gate against the table there; also on
// one-class rooms and under quarantine views up to fully-quarantined
// (width-zero) ones.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/incremental.h"
#include "core/synthetic.h"
#include "tests/core/consolidation_support.h"

namespace {

using namespace coolopt;

core::RoomModel synthetic_room(size_t n, uint64_t seed = 11) {
  core::SyntheticModelOptions opt;
  opt.machines = n;
  opt.seed = seed;
  return core::make_synthetic_model(opt);
}

/// Homogeneous room: every machine is machine 0, so no two particles ever
/// cross and the table collapses to a single segment.
core::RoomModel homogeneous_room(size_t n) {
  core::RoomModel model = synthetic_room(n);
  for (size_t i = 1; i < model.size(); ++i) {
    model.machines[i] = model.machines[0];
  }
  return model;
}

void expect_identical(const core::ConsolidationChoice& a,
                      const core::ConsolidationChoice& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.on_set, b.on_set);
  EXPECT_EQ(a.t_param, b.t_param);
  EXPECT_EQ(a.t_ac, b.t_ac);
  EXPECT_EQ(a.predicted_total_power_w, b.predicted_total_power_w);
}

// A ranking entry owns no heap block: walking a ranking copies no subset.
static_assert(std::is_trivially_copyable_v<core::RankEntry>);

/// query_best_into must be exactly the ranking's head: the same entry, and
/// the same choice once the entry's subset is materialized. Both over the
/// machines `view` admits (every machine without one).
void expect_best_matches_ranking(
    const core::detail::ClassSelector& select, const core::ParticleSystem& ps,
    const core::RoomModel& model, double load,
    core::detail::ClassSelector::View* view = nullptr) {
  std::vector<core::RankEntry> ranked;
  select.rank_all_k_into(ps, model, load, ranked, view);
  core::ConsolidationChoice best;
  const bool got = select.query_best_into(ps, model, load, best, view);
  ASSERT_EQ(got, !ranked.empty()) << "load " << load;
  if (!got) return;
  core::ConsolidationChoice head;
  select.make_choice_into(ps, model, ranked.front().t, ranked.front().k, load,
                          head, view);
  EXPECT_EQ(head.predicted_total_power_w,
            ranked.front().predicted_total_power_w);
  expect_identical(best, head);
}

TEST(ConsolidationSegment, BreakpointLoadsAgreeAcrossAllQueryPaths) {
  const core::RoomModel model = synthetic_room(24);
  const core::IncrementalConsolidator cons(core::share_model(model));
  const core::ParticleSystem& ps = cons.particles();
  const core::ConsolidationTable table = core::reference_table(ps);
  ASSERT_GT(table.segments.size(), 1u)
      << "test premise: a multi-segment table";

  for (size_t s = 0; s < table.segments.size(); ++s) {
    const double t_start = table.segments[s].start;
    for (const size_t k : {size_t{1}, size_t{2}, table.width() / 2,
                           table.width()}) {
      if (k == 0 || k > table.width()) continue;
      // The load that puts the k-subset EXACTLY at this segment's start —
      // the breakpoint where the top-k set changes.
      const double load = table.g(k, t_start);
      if (load <= 0.0) continue;
      expect_best_matches_ranking(cons.table(), ps, model, load);
      // Only this k runs at a crossing, where two tied machines may be
      // listed either way.
      EXPECT_LE(core::test_support::expect_select_matches_table(
                    cons.table(), nullptr, ps, model, table, load),
                1u);
      if (HasFailure()) return;
    }
  }
}

TEST(ConsolidationSegment, BreakpointOperatingSegmentIsSelfConsistent) {
  const core::RoomModel model = synthetic_room(16);
  const core::IncrementalConsolidator cons(core::share_model(model));
  const core::detail::ClassSelector& select = cons.table();
  const core::ParticleSystem& ps = cons.particles();
  const core::ConsolidationTable table = core::reference_table(ps);

  std::vector<core::RankEntry> ranked;
  core::ConsolidationChoice choice;
  for (size_t s = 0; s < table.segments.size(); ++s) {
    for (size_t k = 1; k <= table.width(); ++k) {
      const double load = table.g(k, table.segments[s].start);
      if (load <= 0.0) continue;
      select.rank_all_k_into(ps, model, load, ranked);
      for (const core::RankEntry& e : ranked) {
        // The operating time lies in the actuation range, and the choice
        // materialized there runs at the root of its own subset's line,
        // clamped: the same time up to rounding.
        ASSERT_GE(e.t, ps.t_lo);
        ASSERT_LE(e.t, ps.t_hi);
        select.make_choice_into(ps, model, e.t, e.k, load, choice);
        EXPECT_EQ(choice.k, choice.on_set.size());
        EXPECT_LE(std::abs(choice.t_param - e.t),
                  1e-9 * std::max(1.0, std::abs(e.t)))
            << "segment " << s << ", load k " << k << ", entry k " << e.k;
        EXPECT_EQ(choice.predicted_total_power_w, e.predicted_total_power_w);
      }
    }
  }
}

TEST(ConsolidationSegment, SingleSegmentTableAnswersEveryLoad) {
  const core::RoomModel model = homogeneous_room(12);
  const core::IncrementalConsolidator cons(core::share_model(model));
  const core::detail::ClassSelector& select = cons.table();
  const core::ParticleSystem& ps = cons.particles();
  ASSERT_EQ(cons.class_count(), 1u)
      << "identical particles are one class, and never cross";

  const double cap = model.total_capacity();
  std::vector<core::RankEntry> ranked;
  std::vector<size_t> subset;
  for (const double frac : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double load = cap * frac;
    select.rank_all_k_into(ps, model, load, ranked);
    for (const core::RankEntry& e : ranked) {
      // One class: the top k are its k lowest ids, in ascending order.
      select.top_k_into(e.t, e.k, subset);
      ASSERT_EQ(subset.size(), e.k);
      for (size_t j = 0; j < e.k; ++j) EXPECT_EQ(subset[j], j);
    }
    expect_best_matches_ranking(select, ps, model, load);
  }
}

TEST(ConsolidationSegment, QuarantineMasksAgreeWithQueryBest) {
  const core::SharedRoomModel model =
      core::share_model(synthetic_room(20));
  core::IncrementalConsolidator inc(model);
  std::vector<char> mask(model->size(), 1);

  // Quarantine a growing prefix; at each step the masked query_best_into
  // must be exactly the head of the masked full ranking.
  const double load = model->total_capacity() * 0.3;
  for (size_t quarantined = 0; quarantined < model->size();
       quarantined += 3) {
    for (size_t i = 0; i < quarantined; ++i) mask[i] = 0;
    core::IncrementalConsolidator::View view;
    view.reset(inc.table(), mask);
    expect_best_matches_ranking(inc.table(), inc.particles(), *model, load,
                                &view);
  }
}

TEST(ConsolidationSegment, AllQuarantinedMaskIsCleanlyInfeasible) {
  const core::SharedRoomModel model = core::share_model(synthetic_room(8));
  core::IncrementalConsolidator inc(model);
  const std::vector<char> none(model->size(), 0);
  inc.set_active(none);

  const double load = model->total_capacity() * 0.2;
  core::ConsolidationChoice into;
  EXPECT_FALSE(inc.query_best_into(load, into));
  std::vector<core::RankEntry> buffer;
  inc.rank_all_k_into(load, buffer);
  EXPECT_TRUE(buffer.empty());
}

}  // namespace
