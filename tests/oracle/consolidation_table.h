// The paper's Algorithm 1 data structure (Section III-B), kept as the
// reference the on-demand select (core/class_selector.h) is checked
// against: the sorted crossing events and, per segment between them, the
// machines in coordinate order with their prefix sums. Segments x n
// entries: O(n^3) memory on a room of distinct particles, which is why
// nothing on the served path builds it.
//
// Within a segment no two entries of `order` compare equivalent
// (coordinates tie-break by particle id), and each segment's order is
// sorted at its midpoint, so a segment's top k is the select's subset at
// any time inside it, listed in the same order.
//
// The queries mirror ClassSelector's, by operating time: an entry's subset
// is the top k of segment_at(t).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/class_selector.h"
#include "core/model.h"

namespace coolopt::core {

/// Crossing times closer than this collapse into one event (the
/// floating-point analogue of the paper's "distinct crossing times").
constexpr double kEventMergeEps = 1e-12;

struct ConsolidationTable {
  struct Segment {
    double start = 0.0;       // particle time at segment start
    double order_time = 0.0;  // time the order was sorted at (mid-segment)
    std::vector<uint32_t> order;  // particle ids, coordinate-descending
    // prefix_a[k] / prefix_b[k] = sum of the top-k a / b of `order`.
    std::vector<double> prefix_a;
    std::vector<double> prefix_b;
  };
  using Prefix = detail::ClassSelector::Prefix;
  /// scan_head's answer, with the segment the head's subset is read from.
  struct Head {
    size_t k = 0;  // 0 when no k is feasible
    size_t segment = 0;
    double t = 0.0;
    double power = 0.0;
    bool has_runner_up = false;
    double runner_up_power = 0.0;
  };

  std::vector<double> events;     // sorted collapsed crossing times > 0
  std::vector<Segment> segments;  // segments[0].start == 0

  /// One step of the tolerance collapse of an ascending crossing-time list
  /// (duplicates allowed): appends `t` (>= every kept time) to the kept
  /// list unless it lies within kEventMergeEps of the last kept time.
  static void collapse_append(std::vector<double>& kept, double t) {
    if (kept.empty() || std::abs(t - kept.back()) >= kEventMergeEps) {
      kept.push_back(t);
    }
  }

  /// Builds segments over the particles named in `ids` (ascending original
  /// ids) from an already-collapsed event list.
  void build(const ParticleSystem& ps, const std::vector<uint32_t>& ids,
             const std::vector<double>& collapsed_events);

  /// Particles each segment covers (k ranges over 1..width()).
  size_t width() const {
    return segments.empty() ? 0 : segments.front().order.size();
  }
  /// Segment s's prefix sums at k (0..width()).
  Prefix prefix(size_t s, size_t k) const {
    return Prefix{segments[s].prefix_a[k], segments[s].prefix_b[k]};
  }
  /// Segment containing particle time t (last segment whose start <= t).
  size_t segment_at(double t) const;
  /// Max of sum of k largest coordinates at time t.
  double g(size_t k, double t) const {
    const Prefix p = prefix(segment_at(t), k);
    return p.a - t * p.b;
  }
  /// The first k ids of segment_at(t)'s order: the top-k subset.
  void top_k_into(double t, size_t k, std::vector<size_t>& out) const;
  /// False when k machines cannot serve the load (k out of range, or g_k
  /// below the load at t_lo or at 0); otherwise the operating time: the
  /// root of g_k = load found by binary search over the segments, clamped
  /// into [t_lo, t_hi].
  bool feasible_k(const ParticleSystem& ps, double load, size_t k,
                  double& t) const;
  /// The head scan, as ClassSelector::scan_head (same power floor).
  bool scan_head(const ParticleSystem& ps, const RoomModel& model,
                 double load, Head& out) const;
  bool query_best_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, ConsolidationChoice& out) const;
  /// The top k of segment_at(t) at this load, its sums read from the
  /// segment's prefix arrays, its w2 summed machine by machine.
  void make_choice_into(const ParticleSystem& ps, const RoomModel& model,
                        double t, size_t k, double load,
                        ConsolidationChoice& out) const;
  void rank_all_k_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, std::vector<RankEntry>& out) const;
  double max_load_for_budget(const ParticleSystem& ps, const RoomModel& model,
                             double power_budget_w, size_t k) const;

 private:
  /// Power of segment s's top k at this load, and its clamped time.
  double power_of(const ParticleSystem& ps, const RoomModel& model,
                  size_t s, size_t k, double load, double sum_w2,
                  double& t_param) const;
};

}  // namespace coolopt::core
