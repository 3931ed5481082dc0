// ConsolidationTable::operating_segment edge coverage — the boundaries the
// engine's consolidation walk reads its head subset from.
//
// Loads exactly AT segment breakpoints are the worst case for any
// segment-indexed fast path: the operating segment must be the same one
// solve_for_k, peek_k, and query_best_into all resolve, or a ranked-head
// plan could be materialized from a neighboring segment's order. These
// tests pin the agreements bit-for-bit: peek_k's (segment, power) against
// solve_for_k's and query_best_into against the full ranking's head —
// across breakpoint loads, single-segment (homogeneous) tables, and
// quarantine masks up to fully-quarantined (width-zero) tables.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/incremental.h"
#include "core/synthetic.h"

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

/// The iterated w2 fold peek_k expects (bitwise-uniform w2 — synthetic
/// models draw every machine's w2 from the same double).
double sum_w2(const core::ParticleSystem& ps, size_t k) {
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) sum += ps.w2;
  return sum;
}

void expect_identical(const core::ConsolidationChoice& a,
                      const core::ConsolidationChoice& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.segment, b.segment);
  EXPECT_EQ(a.on_set, b.on_set);
  EXPECT_EQ(a.t_param, b.t_param);
  EXPECT_EQ(a.t_ac, b.t_ac);
  EXPECT_EQ(a.predicted_total_power_w, b.predicted_total_power_w);
}

/// peek_k must agree with solve_for_k on feasibility and, when feasible,
/// on the operating segment and the predicted power — bit-for-bit.
void expect_peek_matches_solve(const core::detail::ConsolidationTable& table,
                               const core::ParticleSystem& ps,
                               const core::RoomModel& model, double load,
                               size_t k) {
  size_t seg = 0;
  double power = 0.0;
  const bool peeked = table.peek_k(ps, model, table.anchors(ps), load, k,
                                   sum_w2(ps, k), &seg, &power);
  const std::optional<core::ConsolidationChoice> solved =
      table.solve_for_k(ps, model, load, k);
  ASSERT_EQ(peeked, solved.has_value())
      << "peek_k and solve_for_k disagree on feasibility at load " << load
      << ", k " << k;
  if (!peeked) return;
  EXPECT_EQ(seg, solved->segment) << "load " << load << ", k " << k;
  EXPECT_EQ(power, solved->predicted_total_power_w)
      << "load " << load << ", k " << k;
  EXPECT_EQ(solved->k, solved->on_set.size());
}

// A ranking entry owns no heap block: walking a ranking copies no subset.
static_assert(std::is_trivially_copyable_v<core::RankEntry>);

/// query_best_into must be exactly the ranking's head: the same entry, and
/// the same choice once the entry's subset is materialized.
void expect_best_matches_ranking(const core::detail::ConsolidationTable& table,
                                 const core::ParticleSystem& ps,
                                 const core::RoomModel& model, double load) {
  std::vector<core::RankEntry> ranked;
  table.rank_all_k_into(ps, model, load, ranked);
  core::ConsolidationChoice best;
  const bool got = table.query_best_into(ps, model, load, best);
  ASSERT_EQ(got, !ranked.empty()) << "load " << load;
  if (!got) return;
  core::ConsolidationChoice head;
  table.make_choice_into(ps, model, ranked.front().segment, ranked.front().k,
                         load, head);
  EXPECT_EQ(head.predicted_total_power_w,
            ranked.front().predicted_total_power_w);
  expect_identical(best, head);
}

TEST(ConsolidationSegment, BreakpointLoadsAgreeAcrossAllQueryPaths) {
  const core::RoomModel model = synthetic_room(24);
  const core::IncrementalConsolidator cons(core::share_model(model));
  const core::detail::ConsolidationTable& table = cons.table();
  const core::ParticleSystem& ps = cons.particles();
  ASSERT_GT(table.segments.size(), 1u)
      << "test premise: a multi-segment table";

  for (size_t s = 0; s < table.segments.size(); ++s) {
    const double t_start = table.segments[s].start;
    for (const size_t k : {size_t{1}, size_t{2}, table.width() / 2,
                           table.width()}) {
      if (k == 0 || k > table.width()) continue;
      // The load that puts the k-subset EXACTLY at this segment's start —
      // the breakpoint where operating_segment tips from s-1 to s.
      const double load = table.g(ps, k, t_start);
      if (load <= 0.0) continue;
      expect_peek_matches_solve(table, ps, model, load, k);
      expect_best_matches_ranking(table, ps, model, load);
    }
  }
}

TEST(ConsolidationSegment, BreakpointOperatingSegmentIsSelfConsistent) {
  const core::RoomModel model = synthetic_room(16);
  const core::IncrementalConsolidator cons(core::share_model(model));
  const core::detail::ConsolidationTable& table = cons.table();
  const core::ParticleSystem& ps = cons.particles();

  for (size_t s = 0; s < table.segments.size(); ++s) {
    for (size_t k = 1; k <= table.width(); ++k) {
      const double load = table.g(ps, k, table.segments[s].start);
      if (load <= 0.0) continue;
      const std::optional<core::ConsolidationChoice> solved =
          table.solve_for_k(ps, model, load, k);
      if (!solved.has_value()) continue;
      // The segment recorded on the choice is operating_segment's answer —
      // re-deriving it must agree exactly (this is the equality the
      // head scan's peek_k segment stands on).
      EXPECT_EQ(solved->segment, table.operating_segment(ps, load, k))
          << "segment " << s << ", k " << k;
      // t_param itself may land one ULP below the segment start at an exact
      // breakpoint: operating_segment clamps t_star up to seg.start for
      // numeric safety, make_choice stores the raw division. Mapping the
      // stored time back through segment_at must therefore give either the
      // recorded segment or, within one ULP of the boundary, its left
      // neighbor — never anything farther.
      const size_t mapped = table.segment_at(solved->t_param);
      if (mapped != solved->segment) {
        ASSERT_EQ(mapped + 1, solved->segment)
            << "segment " << s << ", k " << k;
        const double start = table.segments[solved->segment].start;
        EXPECT_GE(solved->t_param,
                  std::nextafter(start, -std::numeric_limits<double>::infinity()))
            << "segment " << s << ", k " << k;
      }
    }
  }
}

TEST(ConsolidationSegment, SingleSegmentTableAnswersEveryLoad) {
  const core::RoomModel model = homogeneous_room(12);
  const core::IncrementalConsolidator cons(core::share_model(model));
  const core::detail::ConsolidationTable& table = cons.table();
  const core::ParticleSystem& ps = cons.particles();
  ASSERT_EQ(table.segments.size(), 1u)
      << "identical particles never cross, so one segment covers all time";

  const double cap = model.total_capacity();
  for (const double frac : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double load = cap * frac;
    for (size_t k = 1; k <= table.width(); ++k) {
      expect_peek_matches_solve(table, ps, model, load, k);
      const std::optional<core::ConsolidationChoice> solved =
          table.solve_for_k(ps, model, load, k);
      if (solved.has_value()) {
        EXPECT_EQ(solved->segment, 0u);
      }
    }
    expect_best_matches_ranking(table, ps, model, load);
  }
}

TEST(ConsolidationSegment, QuarantineMasksAgreeWithQueryBest) {
  const core::SharedRoomModel model =
      core::share_model(synthetic_room(20));
  core::IncrementalConsolidator inc(model);
  std::vector<char> mask(model->size(), 1);

  // Quarantine a growing prefix; at each step the patched table's
  // query_best_into must be exactly the head of its full ranking.
  const double load = model->total_capacity() * 0.3;
  for (size_t quarantined = 0; quarantined < model->size();
       quarantined += 3) {
    for (size_t i = 0; i < quarantined; ++i) mask[i] = 0;
    inc.set_active(mask);
    expect_best_matches_ranking(inc.table(), inc.particles(), *model, load);
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
