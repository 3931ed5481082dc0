// The class-grouped event list against the paper's pair enumeration.
// IncrementalConsolidator computes one crossing time per pair of particle
// classes (machines whose (a, b) agree bit for bit); the paper enumerates
// every machine pair in p<q orientation. The two agree only because
// fl(x - y) = -fl(y - x) and fl((-x) / (-y)) = fl(x / y) under
// round-to-nearest, so these rooms aim at the places that argument could
// break: 1-ulp neighbours in a and in b, equal coordinates whose crossing
// time is +0.0 or -0.0 depending on the orientation, ids interleaved so a
// member's p<q orientation is the reverse of its representative's, one
// class, every machine its own class, and singleton classes beside large
// ones. Each cold build must equal the reference build byte for byte.
// Then every step of a scripted class walk (a class emptied one member at
// a time, its last member swapped for another in one step, emptied,
// re-entered) and of a seeded churn history restricts the queries to that
// active set through a Mask: they must equal a build over the survivors
// with the room's events bit for bit, and the paper's reference build
// over the survivors bit for bit while every class keeps a member. Once a
// class empties, the room's event list keeps that class's crossing times
// and the reference's does not; the ulp rooms then hold the gate (same
// feasible k, powers within 1e-12 relative, same subset wherever the
// runner-up trails by more than 1e-9 relative).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "tests/core/consolidation_support.h"
#include "tests/oracle/consolidation.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

using test_support::admitted_ids;
using test_support::exact_particle_model;
using test_support::expect_masked_queries_match;
using test_support::expect_masked_table_is;
using test_support::expect_tables_identical;
using test_support::MaskMatch;
using test_support::survivors_table;

struct Room {
  std::vector<double> a;
  std::vector<double> b;
  /// Adds `count` members of the particle (a, b).
  void add(double a_i, double b_i, size_t count = 1) {
    for (size_t j = 0; j < count; ++j) {
      a.push_back(a_i);
      b.push_back(b_i);
    }
  }
};

double up(double x, int ulps = 1) {
  for (int i = 0; i < ulps; ++i) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  }
  return x;
}

/// Classes whose a values are 1-ulp neighbours; their mutual crossing
/// times are a few ulps over a speed gap.
Room ulp_a_room() {
  Room r;
  const double x = 7.3;
  for (int j = 0; j < 4; ++j) {
    r.add(up(x, j), 1.0 + 0.25 * j, 3);
    r.add(up(x, 3 - j), 2.1 - 0.3 * j, 2);
  }
  return r;
}

/// Classes whose b values are 1-ulp neighbours: crossing times are a
/// coordinate gap over one ulp of speed (huge, some overflow to inf), and
/// equal-a pairs among them cross at +0.0 / -0.0.
Room ulp_b_room() {
  Room r;
  const double y = 1.7;
  for (int j = 0; j < 4; ++j) {
    r.add(5.0 + 1e-9 * j, up(y, j), 2);
    r.add(5.0, up(y, j + 1), 1);
    r.add(1e300, up(y, j), 1);
  }
  r.add(1e-300, y, 2);
  return r;
}

/// Equal a, distinct b: every such pair's numerator is zero, so its time
/// is +0.0 in one orientation and -0.0 in the other; neither is an event.
/// Ids alternate between the classes so member orientations vary.
Room equal_coordinate_room() {
  Room r;
  for (int j = 0; j < 6; ++j) {
    r.add(4.0, 1.0);
    r.add(4.0, 3.0);
    r.add(4.0, 2.0 + j);  // singletons
    r.add(9.0, 2.5);
  }
  return r;
}

/// Two classes laid out so the representatives are ids 0 (class A) and
/// 1 (class B), then members alternate B, A, B, A...: the pair (member of
/// A at id 3, representative of B at id 1) is oriented B-before-A, the
/// reverse of the representatives' A-before-B. A third class with a
/// different crossing against each keeps several events alive.
Room interleaved_room() {
  Room r;
  r.add(8.0, 3.0);  // A rep
  r.add(5.0, 1.0);  // B rep
  for (int j = 0; j < 7; ++j) {
    r.add(5.0, 1.0);
    r.add(8.0, 3.0);
    if (j % 3 == 0) r.add(6.5, 1.75);
  }
  return r;
}

/// One class: no crossings at all.
Room single_class_room() {
  Room r;
  r.add(3.25, 0.5, 20);
  return r;
}

/// Every machine its own class (seeded).
Room distinct_room(uint64_t seed) {
  util::Rng rng(seed);
  Room r;
  for (int j = 0; j < 24; ++j) r.add(rng.uniform(1.0, 50.0), rng.uniform(0.2, 4.0));
  return r;
}

/// A few large classes, some 1-ulp perturbations of them as singletons,
/// and independent singletons, shuffled over the slots.
Room mixed_room(uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<double, double>> slots;
  for (int c = 0; c < 4; ++c) {
    const double a_c = rng.uniform(1.0, 50.0);
    const double b_c = rng.uniform(0.2, 4.0);
    for (int j = 0; j < 6; ++j) slots.emplace_back(a_c, b_c);
    slots.emplace_back(up(a_c), b_c);
    slots.emplace_back(a_c, up(b_c));
  }
  for (int j = 0; j < 5; ++j) {
    slots.emplace_back(rng.uniform(1.0, 50.0), rng.uniform(0.2, 4.0));
  }
  rng.shuffle(slots);
  Room r;
  for (const auto& [a_i, b_i] : slots) r.add(a_i, b_i);
  return r;
}

/// Three particles that all cross at t = 1, each class with a different
/// member count: any one class leaving keeps the other two crossing there,
/// so the event list survives every single class exit.
Room concurrent_room() {
  Room r;
  r.add(2.0, 1.0, 4);
  r.add(3.0, 2.0, 1);
  r.add(4.0, 3.0, 4);
  return r;
}

/// Each machine's class: the index of the first machine whose (a, b) bits
/// it shares, renumbered densely.
std::vector<size_t> class_of(const Room& r) {
  std::vector<size_t> cls(r.a.size());
  std::vector<size_t> first;  // class -> its first machine
  for (size_t i = 0; i < r.a.size(); ++i) {
    size_t c = 0;
    while (c < first.size() &&
           (std::bit_cast<uint64_t>(r.a[i]) != std::bit_cast<uint64_t>(r.a[first[c]]) ||
            std::bit_cast<uint64_t>(r.b[i]) != std::bit_cast<uint64_t>(r.b[first[c]]))) {
      ++c;
    }
    if (c == first.size()) first.push_back(i);
    cls[i] = c;
  }
  return cls;
}

/// Masks walking the largest class (the lowest one among equals) through
/// its edge cases, starting from the full room: its members after the
/// first leave one per step; one delta swaps the last active member for
/// another member of the class (when it has two); unless it is the whole
/// room, the class empties and a member re-enters.
std::vector<std::vector<char>> class_walk(const std::vector<size_t>& cls) {
  const size_t n = cls.size();
  std::vector<size_t> size(n, 0);
  for (const size_t c : cls) ++size[c];
  const size_t walked =
      static_cast<size_t>(std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<size_t> members;
  for (size_t i = 0; i < n; ++i) {
    if (cls[i] == walked) members.push_back(i);
  }
  std::vector<char> mask(n, 1);
  std::vector<std::vector<char>> walk;
  for (size_t j = 1; j < members.size(); ++j) {
    mask[members[j]] = 0;
    walk.push_back(mask);
  }
  size_t last = members[0];
  if (members.size() > 1) {
    mask[last] = 0;
    last = members[1];
    mask[last] = 1;
    walk.push_back(mask);
  }
  if (members.size() == n) return walk;  // keep the room non-empty
  mask[last] = 0;
  walk.push_back(mask);
  mask[members[0]] = 1;
  walk.push_back(mask);
  return walk;
}

/// Steps of a walk that left every class a member, and steps that emptied
/// one, so a room can assert it covered them.
struct WalkCounts {
  size_t classes_kept = 0;
  size_t classes_emptied = 0;
};

/// Cold build vs the reference, then the room's class walk and a seeded
/// churn history from where it ends (1-3 toggles per step, every ninth
/// step a large jump). At each step the masked queries at loads across the
/// survivors' range and at segment starts must equal, bit for bit, the
/// same queries on a build over the survivors with the room's event list.
/// Against the paper's reference build over the survivors they must be
/// bitwise too while its event list is the room's, as it is while every
/// class keeps a member; otherwise `emptied` says how they are held.
WalkCounts check_room(const Room& r, uint64_t seed, size_t steps,
                      MaskMatch emptied) {
  WalkCounts counts;
  const SharedRoomModel model = share_model(exact_particle_model(r.a, r.b));
  const IncrementalConsolidator inc(model);
  const ParticleSystem& ps = inc.particles();
  const detail::ConsolidationTable& table = inc.table();
  const size_t n = ps.size();
  // Premise: the room reaches the consolidator bit for bit.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ps.a[i]), std::bit_cast<uint64_t>(r.a[i]));
    EXPECT_EQ(std::bit_cast<uint64_t>(ps.b[i]), std::bit_cast<uint64_t>(r.b[i]));
  }
  const std::vector<size_t> cls = class_of(r);
  const size_t class_total = *std::max_element(cls.begin(), cls.end()) + 1;
  EXPECT_EQ(inc.class_count(), class_total);
  expect_tables_identical(ps, table, reference_table(ps));
  if (testing::Test::HasFailure()) return counts;

  detail::ConsolidationTable::Mask mask;
  const auto step_to = [&](const std::vector<char>& active) {
    std::vector<char> live(class_total, 0);
    for (size_t i = 0; i < n; ++i) live[cls[i]] |= active[i];
    const bool kept =
        std::find(live.begin(), live.end(), 0) == live.end();
    ++(kept ? counts.classes_kept : counts.classes_emptied);

    const std::vector<uint32_t> ids = admitted_ids(active);
    const detail::ConsolidationTable same = survivors_table(ps, table, ids);
    const detail::ConsolidationTable reference = reference_table(ps, ids);
    if (kept) {
      ASSERT_EQ(reference.events, table.events);
    }
    mask.reset(table, active);

    const size_t width = same.width();
    const double most = same.g(ps, width, ps.t_lo);
    std::vector<double> loads;
    for (const double f : {0.05, 0.3, 0.6, 0.9}) loads.push_back(f * most);
    for (const size_t k : {size_t{1}, (width + 1) / 2, width}) {
      const size_t s = (k * 7) % same.segments.size();
      loads.push_back(same.g_in(ps, s, k, same.segments[s].start));
    }
    for (const double load : loads) {
      if (!(load >= 0.0)) continue;
      expect_masked_queries_match(ps, *model, table, mask, same, load,
                                  MaskMatch::kSameEvents);
      expect_masked_queries_match(
          ps, *model, table, mask, reference, load,
          reference.events == table.events ? MaskMatch::kSameEvents : emptied);
    }
    // Last, so the queries above meet the cursors the previous step left.
    expect_masked_table_is(ps, table, mask, same);
  };

  const std::vector<std::vector<char>> walk = class_walk(cls);
  for (size_t step = 0; step < walk.size(); ++step) {
    SCOPED_TRACE("class walk step " + std::to_string(step));
    step_to(walk[step]);
    if (testing::Test::HasFailure()) return counts;
  }

  util::Rng rng(seed);
  std::vector<char> active = walk.empty() ? std::vector<char>(n, 1) : walk.back();
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("churn step " + std::to_string(step));
    const size_t flips =
        step % 9 == 8 ? n / 2 : 1 + static_cast<size_t>(rng.next_u64() % 3);
    for (size_t f = 0; f < flips; ++f) {
      active[static_cast<size_t>(rng.next_u64() % n)] ^= 1;
    }
    active[step % n] = 1;  // never empty
    step_to(active);
    if (testing::Test::HasFailure()) return counts;
  }
  return counts;
}

TEST(CrossingClasses, OneUlpNeighboursInA) {
  const WalkCounts counts = check_room(ulp_a_room(), 11, 60, MaskMatch::kGate);
  EXPECT_GT(counts.classes_kept, 0u);
  EXPECT_GT(counts.classes_emptied, 0u);
}

TEST(CrossingClasses, OneUlpNeighboursInB) {
  check_room(ulp_b_room(), 12, 60, MaskMatch::kGate);
}

TEST(CrossingClasses, SignedZeroCrossingTimesAreNeverEvents) {
  const Room r = equal_coordinate_room();
  // Premise: the 4.0-coordinate pairs really produce a signed zero in one
  // orientation and the other sign in the reverse one.
  const double forward = (r.a[0] - r.a[1]) / (r.b[0] - r.b[1]);
  const double reverse = (r.a[1] - r.a[0]) / (r.b[1] - r.b[0]);
  ASSERT_EQ(forward, 0.0);
  ASSERT_NE(std::signbit(forward), std::signbit(reverse));
  check_room(r, 13, 60, MaskMatch::kGate);
}

TEST(CrossingClasses, MemberOrientationOppositeToRepresentatives) {
  const Room r = interleaved_room();
  // Premise: ids 0 and 1 are the representatives of classes A and B, and
  // id 3 (class A) sits after id 1 (class B), so the pair's canonical
  // orientation is reversed relative to the representatives'.
  ASSERT_EQ(r.a[3], r.a[0]);
  ASSERT_EQ(r.b[3], r.b[0]);
  ASSERT_EQ(r.a[2], r.a[1]);
  const WalkCounts counts = check_room(r, 14, 60, MaskMatch::kGate);
  EXPECT_GT(counts.classes_kept, 0u);
  EXPECT_GT(counts.classes_emptied, 0u);
}

TEST(CrossingClasses, OneClass) {
  const WalkCounts counts =
      check_room(single_class_room(), 15, 40, MaskMatch::kBits);
  EXPECT_EQ(counts.classes_emptied, 0u);
}

TEST(CrossingClasses, EveryMachineItsOwnClass) {
  const WalkCounts counts =
      check_room(distinct_room(16), 16, 40, MaskMatch::kBits);
  EXPECT_GT(counts.classes_emptied, 0u);
}

TEST(CrossingClasses, ConcurrentCrossingsSurviveAClassExit) {
  const Room r = concurrent_room();
  // Premise: every pair of the three classes crosses at exactly t = 1.
  for (size_t i = 0; i < r.a.size(); ++i) {
    for (size_t j = 0; j < r.a.size(); ++j) {
      if (r.b[i] == r.b[j]) continue;
      ASSERT_EQ((r.a[i] - r.a[j]) / (r.b[i] - r.b[j]), 1.0);
    }
  }
  // Any one class leaving keeps the event at t = 1, so the survivors' own
  // event list is the room's until two classes are gone.
  const WalkCounts counts = check_room(r, 17, 40, MaskMatch::kBits);
  EXPECT_GT(counts.classes_emptied, 0u);
}

TEST(CrossingClasses, SingletonsBesideLargeClasses) {
  for (const uint64_t seed : {uint64_t{21}, uint64_t{22}, uint64_t{23}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const WalkCounts counts =
        check_room(mixed_room(seed), seed, 60, MaskMatch::kGate);
    EXPECT_GT(counts.classes_kept, 0u);
    EXPECT_GT(counts.classes_emptied, 0u);
  }
}

/// Two members of a large class leave and rejoin: the class keeps other
/// members, so the survivors' reference build has the room's event list,
/// and the masked table must be that build to the bit, then the room's.
TEST(MaskedTable, LeavingMembersOfALargeClassEqualsTheReferenceBuild) {
  const Room r = mixed_room(32);
  const ParticleSystem ps =
      ParticleSystem::from_model(exact_particle_model(r.a, r.b));
  const detail::ConsolidationTable table = reference_table(ps);
  std::vector<uint32_t> all(ps.size());
  for (uint32_t i = 0; i < ps.size(); ++i) all[i] = i;
  const auto members_like = [&](uint32_t c) {
    std::vector<uint32_t> out;
    for (const uint32_t i : all) {
      if (ps.a[i] == ps.a[c] && ps.b[i] == ps.b[c]) out.push_back(i);
    }
    return out;
  };
  uint32_t large = 0;
  while (members_like(large).size() < 4) ++large;
  const std::vector<uint32_t> members = members_like(large);
  std::vector<char> active(ps.size(), 1);
  active[members[1]] = 0;
  active[members[3]] = 0;
  const detail::ConsolidationTable reduced =
      reference_table(ps, admitted_ids(active));
  ASSERT_EQ(reduced.events, table.events);
  detail::ConsolidationTable::Mask mask;
  mask.reset(table, active);
  expect_masked_table_is(ps, table, mask, reduced);
  active[members[1]] = 1;
  active[members[3]] = 1;
  mask.reset(table, active);
  expect_masked_table_is(ps, table, mask, table);
}

}  // namespace
}  // namespace coolopt::core
