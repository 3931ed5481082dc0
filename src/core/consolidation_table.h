// The Algorithm 1 data structure itself: events and per-segment coordinate
// orders with prefix sums. Its one owner is IncrementalConsolidator
// (incremental.h), which builds it cold over a room; every build funnels
// through ConsolidationTable::build, and nothing writes to a table after it.
//
// The paper's allStatus list (Algorithm 2's binary-search index) is not
// part of the table: it holds segments x n entries and only the reference
// query reads it, so the test oracle (tests/oracle/consolidation.h) builds
// it from a table on demand.
//
// A note on determinism: within a segment no two entries of `order`
// compare equivalent (coordinates tie-break by particle id), so the sorted
// order is the UNIQUE sequence satisfying the comparator, and the order a
// build sorts over any subset of the ids is the subsequence of the full
// order those ids form. A query restricted by a Mask relies on this: it
// folds the first k admitted ids of each order left to right, the adds a
// table built over the admitted ids makes, so over the same event list it
// reads that table's prefix sums bit for bit.
//
// Threads: a built table is immutable, so any number of threads may query
// it at once. A Mask holds the running state of one thread's masked
// queries (SolveScratch keeps one per thread).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/model.h"

namespace coolopt::core {

/// A consolidation decision: which machines to keep ON for a given load.
struct ConsolidationChoice {
  std::vector<size_t> on_set;  ///< machine indices, unsorted
  size_t k = 0;                ///< == on_set.size()
  double t_param = 0.0;        ///< clamped particle time actually used
  double t_ac = 0.0;           ///< w1 * t_param
  double predicted_total_power_w = 0.0;
  /// Table segment the choice was materialized from (only meaningful for
  /// choices produced by a ConsolidationTable).
  size_t segment = 0;
};

/// One entry of the consolidation ranking: the best k-subset for a load is
/// the top-k prefix of the table segment's order (Algorithm 2's
/// select(A, k, L)), so an entry names it without copying it.
struct RankEntry {
  size_t k = 0;
  size_t segment = 0;  ///< table segment whose order's top k is the subset
  double predicted_total_power_w = 0.0;
};

/// The particle view of a room model (exposed for tests and benches).
struct ParticleSystem {
  std::vector<double> a;  ///< initial coordinates, a_i = K_i
  std::vector<double> b;  ///< speeds, b_i = alpha_i/beta_i (> 0)
  double w1 = 0.0;        ///< shared w1 (validated uniform)
  double w2 = 0.0;        ///< shared w2 (validated uniform)
  /// Every machine's w2 is the same double, so a running fold of w2 is any
  /// k-subset's machine-by-machine idle draw to the bit.
  bool w2_identical = false;
  double t_lo = 0.0;      ///< max(0, t_ac_min/w1)
  double t_hi = 0.0;      ///< t_ac_max / w1

  static ParticleSystem from_model(const RoomModel& model);
  /// Skips RoomModel::validate() (caller already ran it); still throws
  /// std::invalid_argument unless RoomModel::uniform_w1() and uniform_w2()
  /// hold, as the reduction needs.
  static ParticleSystem from_model(const RoomModel& model, PreValidated);
  size_t size() const { return a.size(); }
  double coordinate(size_t i, double t) const { return a[i] - b[i] * t; }
};

namespace detail {

/// Feasibility slack shared by every consolidation solver (the particle
/// time may undershoot t_lo by at most this before a subset is rejected).
constexpr double kFeasEps = 1e-7;

/// Crossing times closer than this collapse into one event (the
/// floating-point analogue of the paper's "distinct crossing times").
constexpr double kEventMergeEps = 1e-12;

struct ConsolidationTable {
  // 32-byte aligned, so a segment takes 96 bytes: at its natural 88, the
  // binary searches over the segments ran ~20% slower (unmasked
  // rank_all_k_into on a 29,822-segment table, 16 -> 19-20 us).
  struct alignas(32) Segment {
    double start = 0.0;       // particle time at segment start
    double order_time = 0.0;  // time the order was sorted at (mid-segment)
    std::vector<uint32_t> order;  // particle ids, coordinate-descending
    // prefix_a[k] / prefix_b[k] = sum of the top-k a / b of `order`.
    std::vector<double> prefix_a;
    std::vector<double> prefix_b;
  };
  /// The sums of the top-k a and b of a segment's order.
  struct Prefix {
    double a = 0.0;
    double b = 0.0;
  };
  /// The head of the (power, k)-ascending ranking and its runner-up's
  /// power, as scan_head finds them.
  struct Head {
    size_t k = 0;  // 0 when no k is feasible
    size_t segment = 0;
    double power = 0.0;
    bool has_runner_up = false;
    double runner_up_power = 0.0;
  };

  /// Restricts queries to the particles whose byte in a mask is non-zero
  /// (a quarantined solve's survivors) without touching the table. Over a
  /// table built with event list E, every masked query answers what the
  /// same query answers on a table built over the admitted ids with E, bit
  /// for bit. A masked read of segment s's prefix sums at k folds the
  /// first k admitted ids of its order through a forward cursor per
  /// segment (up to the first masked id the table's own prefix sums are
  /// that fold), so a pass of ascending k (scan_head, rank_all_k_into)
  /// reads each order once; a read below a cursor refolds that segment
  /// from its start. Grow-only: once sized for a table's segments, reset
  /// allocates nothing.
  class Mask {
   public:
    /// Binds to `active` (one byte per particle of the table's system,
    /// non-zero = admitted), which must outlive the queries, and resets
    /// every cursor. Throws std::invalid_argument unless the table was
    /// built over every particle, one per byte of `active` (as
    /// IncrementalConsolidator builds it).
    void reset(const ConsolidationTable& table, const std::vector<char>& active);
    /// Admitted ids in the table: the masked width().
    size_t width() const { return width_; }
    /// Heap bytes held by the cursors.
    size_t bytes() const { return cursors_.capacity() * sizeof(Cursor); }

   private:
    friend struct ConsolidationTable;
    struct Cursor {
      uint64_t pass = 0;  // the reset() it belongs to; older ones read as 0
      size_t pos = 0;     // next position of the segment's order to read
      size_t count = 0;   // admitted ids folded so far
      double a = 0.0;
      double b = 0.0;
    };
    const std::vector<char>* active_ = nullptr;
    std::vector<Cursor> cursors_;  // one per segment
    uint64_t pass_ = 0;
    size_t width_ = 0;
  };

  std::vector<double> events;      // sorted collapsed crossing times > 0
  std::vector<Segment> segments;   // segments[0].start == 0

  /// One step of the tolerance collapse of an ascending crossing-time list
  /// (duplicates allowed): appends `t` (>= every kept time) to the kept
  /// list unless it lies within kEventMergeEps of the last kept time.
  /// Applied over any ascending input, duplicated or distinct, it keeps
  /// what the historical sort-then-std::unique pass kept.
  static void collapse_append(std::vector<double>& kept, double t) {
    if (kept.empty() || std::abs(t - kept.back()) >= kEventMergeEps) {
      kept.push_back(t);
    }
  }

  /// Builds segments over the particles named in `ids` (ascending original
  /// ids) from an already-collapsed event list.
  void build(const ParticleSystem& ps, const std::vector<uint32_t>& ids,
             const std::vector<double>& collapsed_events);

  /// Number of particles each segment covers (k ranges over 1..width()), or
  /// the admitted ones under `mask`.
  size_t width(const Mask* mask = nullptr) const {
    if (mask != nullptr) return mask->width();
    return segments.empty() ? 0 : segments.front().order.size();
  }

  /// The one read of segment `s`'s prefix sums at k (0..width(mask)): an
  /// array load, or under `mask` the fold of its first k admitted ids. `ps`
  /// must be the particle system the table was built over.
  Prefix prefix(const ParticleSystem& ps, size_t s, size_t k,
                Mask* mask = nullptr) const {
    // Laid out off the hot path: with the masked call inline, GCC moved the
    // array loads out of the binary searches' loop body (unmasked
    // rank_all_k_into ~2x slower).
    if (mask != nullptr) [[unlikely]] {
      return masked_prefix(ps, s, k, *mask);
    }
    const Segment& seg = segments[s];
    return Prefix{seg.prefix_a[k], seg.prefix_b[k]};
  }

  /// The first k ids of segment `s`'s order (the first k admitted ones
  /// under `mask`): the top-k subset, written into `out`.
  void top_k_into(size_t s, size_t k, std::vector<size_t>& out,
                  const Mask* mask = nullptr) const;

  /// The k-invariant lookups of feasible_k: the segments holding t_lo and
  /// t = 0. A query over every k computes them once (anchors()) and passes
  /// them to each feasible_k/peek_k call.
  struct Anchors {
    size_t lo = 0;    // segment_at(ps.t_lo)
    size_t zero = 0;  // segment_at(0.0)
  };

  // Every query below reads the whole table, or under `mask` only its
  // admitted particles.

  /// Max of sum of k largest coordinates at time t.
  double g(const ParticleSystem& ps, size_t k, double t,
           Mask* mask = nullptr) const {
    return g_in(ps, segment_at(t), k, t, mask);
  }
  /// g(ps, k, t) with the segment holding t already looked up.
  double g_in(const ParticleSystem& ps, size_t segment, size_t k, double t,
              Mask* mask = nullptr) const {
    const Prefix p = prefix(ps, segment, k, mask);
    return p.a - t * p.b;
  }
  /// Segment containing particle time t (last segment whose start <= t).
  size_t segment_at(double t) const;
  Anchors anchors(const ParticleSystem& ps) const {
    return Anchors{segment_at(ps.t_lo), segment_at(0.0)};
  }
  /// Segment the k-subset operates in for this load: last segment whose
  /// start-value of g_k still covers the load, then the (clamped) subset
  /// time mapped back through segment_at. Every query reads it through
  /// feasible_k, so all see the identical operating segment.
  size_t operating_segment(const ParticleSystem& ps, double load, size_t k,
                           Mask* mask = nullptr) const;
  /// The per-k core every query shares: false when k machines cannot
  /// serve the load (k out of range, or g_k below the load at t_lo);
  /// otherwise the operating segment. `at` is anchors(ps).
  bool feasible_k(const ParticleSystem& ps, const Anchors& at, double load,
                  size_t k, size_t& segment, Mask* mask = nullptr) const;
  /// Exact per-k solve; nullopt if k machines cannot serve the load.
  std::optional<ConsolidationChoice> solve_for_k(const ParticleSystem& ps,
                                                 const RoomModel& model,
                                                 double load, size_t k,
                                                 Mask* mask = nullptr) const;
  /// The one head-of-ranking k-scan: ascending k with strict-< updates
  /// (the ranking's tie-break) over peek_k, the subset idle draw folded as
  /// a running sum of ps.w2. Tracks the winner and the runner-up, and stops
  /// at the first k whose power_floor reaches the runner-up's power, so it
  /// peeks the few feasible k that can win, not all n. Infeasible k cost
  /// two prefix-sum reads; no on_set is materialized. When
  /// ps.w2_identical, the fold is every k-subset's machine-by-machine sum,
  /// so each power is make_choice_into's to the bit and the head is
  /// rank_all_k_into's. Returns false when no k is feasible.
  bool scan_head(const ParticleSystem& ps, const RoomModel& model,
                 double load, Head& out, Mask* mask = nullptr) const;
  /// The single best choice — the ranking's head — from scan_head, then
  /// make_choice_into for its on_set (O(k), versus the full ranking's
  /// every-k probes and sort). Writes into a caller-owned choice
  /// (on_set buffer reused); returns false when no k is feasible.
  bool query_best_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, ConsolidationChoice& out,
                       Mask* mask = nullptr) const;
  /// Materializes the k-subset of `segment` at this load into a caller-owned
  /// choice (on_set buffer reused), summing the subset's w2 one by one.
  void make_choice_into(const ParticleSystem& ps, const RoomModel& model,
                        size_t segment, size_t k, double load,
                        ConsolidationChoice& out,
                        const Mask* mask = nullptr) const;
  /// Feasibility + operating segment + predicted power for one k, without
  /// materializing the on_set. `sum_w2_k` must be the iterated sum of the
  /// subset's w2 draws; when w2 is bitwise-uniform across machines, any
  /// k-subset folds to the same double, so the power here is bit-for-bit
  /// what make_choice_into computes. scan_head's probe. Returns false when
  /// k machines cannot serve the load. `at` is anchors(ps).
  bool peek_k(const ParticleSystem& ps, const RoomModel& model,
              const Anchors& at, double load, size_t k, double sum_w2_k,
              size_t* segment_out, double* power_out,
              Mask* mask = nullptr) const;
  /// A lower bound on peek_k's power for this k and every larger k, at
  /// the bit level: peek_k's power expression with the subset run at the
  /// warmest allowed air (t_param = t_hi, which std::clamp never exceeds).
  /// Exact because every rounded step is monotone: the cooler's predict
  /// cannot rise with t_ac (cfac > 0) nor fall with its IT-heat argument
  /// (q_coeff >= 0), and the idle fold `sum_w2_k` cannot fall with k
  /// (w2 >= 0). So the floor never decreases in k, and an ascending-k scan
  /// whose best (or runner-up) power is already <= the floor at k has
  /// seen its final answer under strict-< updates. Returns -HUGE_VAL
  /// (prune nothing) when q_coeff < 0.
  static double power_floor(const ParticleSystem& ps, const RoomModel& model,
                            double load, double sum_w2_k);
  /// Best subset for every feasible k as (k, segment, power) entries,
  /// sorted by predicted power then k, into `out` (cleared first, and
  /// reserved to width() so it never grows past a first call). Each power
  /// is make_choice_into's for that entry, to the bit: when
  /// ps.w2_identical the idle draw is scan_head's running fold, O(1) per k,
  /// otherwise the subset's w2 summed machine by machine.
  void rank_all_k_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, std::vector<RankEntry>& out,
                       Mask* mask = nullptr) const;
  /// The paper's maxL(A, P_b, k) by bisection on [0, g_k(t_lo)].
  double max_load_for_budget(const ParticleSystem& ps, const RoomModel& model,
                             double power_budget_w, size_t k,
                             Mask* mask = nullptr) const;

 private:
  /// prefix() under a mask: advances segment `s`'s cursor to k admitted
  /// ids, restarting it when k lies below it.
  Prefix masked_prefix(const ParticleSystem& ps, size_t s, size_t k,
                       Mask& mask) const;
};

}  // namespace detail
}  // namespace coolopt::core
