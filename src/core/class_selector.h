// Algorithm 2's select(A, k, L) (Section III-B), answered on demand.
//
// The paper's Algorithm 1 precomputes every particle-order event so that a
// query is a binary search: one machine order and two prefix arrays per
// segment, O(n^3) memory on a room of distinct particles. This selector
// keeps O(n) and answers each k with a short Newton search instead. The
// table itself is the test oracle's reference (tests/oracle/
// consolidation_table.h).
//
// The class view. Machines whose particles (a, b) agree bit for bit (a
// signed zero counted once) form a class, which lists its members in
// ascending id; a room built from a few machine SKUs has a few classes at
// any n. A query reads how many members of each class it admits from a
// View: every machine, or a quarantine's survivors. g_k(t), the sum of the
// k largest coordinates a_i - b_i t, is the top-k fill over the classes in
// coordinate order at t: whole classes, then the lowest-id members of the
// class the k-th machine falls in. Ties take the order just after t
// (coordinate descending, then b ascending, then a descending), the order
// the table sorts at mid-segment, so at a time exactly on a segment
// boundary the subset is that segment's. (An operating time an ulp before
// a crossing sees the rounded coordinates of the crossing pair, which may
// still rank them the other way.)
//
// The per-k solve. g_k is convex, decreasing and piecewise linear. A Newton
// step moves t to the root of the current top-k line; the search stops when
// the top-k set at the new t is the one that drew the line. From the left
// of the root every step rises, and from the right the first step lands
// left of it, so each k starts at the previous k's operating time. The
// view keeps its classes' order from step to step, so a step re-sorts by an
// insertion pass over the few classes that crossed: O(classes) per step.
// The operating time is the root clamped into [t_lo, t_hi], and the subset
// is the top k there.
//
// Bits. A subset's sums add count x a per class, in class order: within
// ulps of a machine-by-machine fold, and identical to it on a room of
// distinct particles. A query on a View that admits a room's survivors is,
// bit for bit with indices mapped back, the same query on a selector over a
// room of the survivors alone (while that room keeps the same w1 and w2
// doubles).
//
// Threads: a selector is immutable, so any number of threads may query it,
// each through its own View. A query passed no View uses a thread-local one
// that admits every machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/model.h"

namespace coolopt::core {

/// A consolidation decision: which machines to keep ON for a given load.
struct ConsolidationChoice {
  std::vector<size_t> on_set;  ///< machine indices, in the select's order
  size_t k = 0;                ///< == on_set.size()
  double t_param = 0.0;        ///< clamped particle time actually used
  double t_ac = 0.0;           ///< w1 * t_param
  double predicted_total_power_w = 0.0;
};

/// One entry of the consolidation ranking: the best k-subset for a load is
/// the top k at the operating time `t` (Algorithm 2's select(A, k, L)), so
/// an entry names it without copying it.
struct RankEntry {
  size_t k = 0;
  double t = 0.0;  ///< operating particle time, in [t_lo, t_hi]
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

class ClassSelector {
 public:
  /// The sums of a top-k fill's a and b.
  struct Prefix {
    double a = 0.0;
    double b = 0.0;
  };
  /// The head of the (power, k)-ascending ranking and its runner-up's
  /// power, as scan_head finds them.
  struct Head {
    size_t k = 0;  // 0 when no k is feasible
    double t = 0.0;
    double power = 0.0;
    bool has_runner_up = false;
    double runner_up_power = 0.0;
  };

  /// One thread's query state: the admitted member count of each class,
  /// and the admitted classes in coordinate order at the time the last
  /// Newton step left them (kept between steps, so a step that passes few
  /// crossings re-sorts cheaply). Grow-only: once sized for a selector,
  /// reset allocates nothing.
  class View {
   public:
    /// Admits every machine.
    void reset(const ClassSelector& sel);
    /// Admits the machines whose byte in `active` (one per machine, which
    /// must outlive the queries) is non-zero. O(n); throws
    /// std::invalid_argument on a size mismatch.
    void reset(const ClassSelector& sel, const std::vector<char>& active);
    /// Admits every machine but `excluded`: distinct ids whose byte in
    /// `active` is zero, every other byte non-zero. O(classes + excluded).
    void reset(const ClassSelector& sel, const std::vector<char>& active,
               std::span<const size_t> excluded);
    /// Admitted machines: k ranges over 1..width().
    size_t width() const { return width_; }
    /// Heap bytes held.
    size_t bytes() const {
      return count_.capacity() * sizeof(uint32_t) +
             order_.capacity() * sizeof(Slot);
    }

   private:
    friend class ClassSelector;
    /// Admits every machine but `excluded` (distinct ids), which `active`
    /// (nullptr when nothing is excluded) marks zero.
    void admit(const ClassSelector& sel, const std::vector<char>* active,
               std::span<const size_t> excluded);
    /// An admitted class, with what the sorts and sums read of it.
    struct Slot {
      double x = 0.0;  // the class's coordinate at t_
      double a = 0.0;
      double b = 0.0;
      uint32_t cls = 0;
      uint32_t count = 0;  // admitted members
    };
    const ClassSelector* sel_ = nullptr;
    const std::vector<char>* active_ = nullptr;  // nullptr: every machine
    std::vector<uint32_t> count_;  // admitted members per class
    std::vector<Slot> order_;      // admitted classes, sorted at t_
    double t_ = 0.0;
    size_t width_ = 0;
  };

  ClassSelector() = default;
  /// Groups the particles into classes and orders them at ps.t_lo.
  explicit ClassSelector(const ParticleSystem& ps);

  /// Machines in the room, and distinct particle classes among them.
  size_t size() const { return class_of_.size(); }
  size_t class_count() const { return a_.size(); }
  /// Admitted machines: the view's, or every machine without one.
  size_t width(const View* view = nullptr) const {
    return view != nullptr ? view->width() : size();
  }

  // Every query below reads the machines `view` admits (every machine
  // without one). `ps` must be the particle system the selector was built
  // over.

  /// g_k(t): the sum of the k largest coordinates at time t.
  double g(const ParticleSystem& ps, size_t k, double t,
           View* view = nullptr) const;
  /// The top k at time t, classes in coordinate order, members by
  /// ascending id: the subset, written into `out`.
  void top_k_into(double t, size_t k, std::vector<size_t>& out,
                  View* view = nullptr) const;
  /// The one head-of-ranking k-scan: ascending k with strict-< updates
  /// (the ranking's tie-break), the subset idle draw folded as a running
  /// sum of ps.w2. Tracks the winner and the runner-up, and stops at the
  /// first k whose power_floor reaches the runner-up's power, so it solves
  /// the few feasible k that can win, not all n. An infeasible k costs one
  /// step of the fill at t_lo; no on_set is materialized. When
  /// ps.w2_identical, the fold is every k-subset's machine-by-machine sum,
  /// so each power is make_choice_into's to the bit and the head is
  /// rank_all_k_into's. Returns false when no k is feasible.
  bool scan_head(const ParticleSystem& ps, const RoomModel& model,
                 double load, Head& out, View* view = nullptr) const;
  /// The single best choice — the ranking's head — from scan_head, then
  /// make_choice_into for its on_set, into a caller-owned choice (on_set
  /// buffer reused); returns false when no k is feasible.
  bool query_best_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, ConsolidationChoice& out,
                       View* view = nullptr) const;
  /// Materializes the top k at time `t` for this load into a caller-owned
  /// choice (on_set buffer reused), summing the subset's w2 one by one.
  void make_choice_into(const ParticleSystem& ps, const RoomModel& model,
                        double t, size_t k, double load,
                        ConsolidationChoice& out, View* view = nullptr) const;
  /// A lower bound on the power of this k and of every larger k, at the
  /// bit level: the subset power expression with the subset run at the
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
  /// Best subset for every feasible k as (k, t, power) entries, sorted by
  /// predicted power then k, into `out` (cleared first, and reserved to
  /// width() so it never grows past a first call). Each power is
  /// make_choice_into's for that entry, to the bit: when ps.w2_identical
  /// the idle draw is scan_head's running fold, O(1) per k, otherwise the
  /// subset's w2 summed machine by machine.
  void rank_all_k_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, std::vector<RankEntry>& out,
                       View* view = nullptr) const;
  /// The paper's maxL(A, P_b, k) by bisection on [0, g_k(t_lo)].
  double max_load_for_budget(const ParticleSystem& ps, const RoomModel& model,
                             double power_budget_w, size_t k,
                             View* view = nullptr) const;

 private:
  /// `view` bound to this selector, or the thread's every-machine view.
  View& view_or_local(View* view) const;
  /// Puts the view's admitted classes back in their order at t_lo.
  void rewind(View& v) const;
  /// Re-sorts the view's classes at time t; true when their order changed.
  bool sort_at(View& v, double t) const;
  /// The top-k fill's sums over the view's current order.
  Prefix top_k_sums(const View& v, size_t k) const;
  /// Calls visit(first, last) over the top k of the view's current order,
  /// one run of member ids at a time: classes in order, each class's
  /// admitted members by ascending id (a whole class prefix in one run
  /// when none of its members is excluded).
  template <typename Visit>
  void for_top_k(const View& v, size_t k, Visit&& visit) const;
  /// The operating time of k machines at this load, from a start `t`:
  /// leaves the view sorted there and `p` its top-k sums.
  double operate(const ParticleSystem& ps, double load, size_t k, double t,
                 View& v, Prefix& p) const;
  /// The ascending-k pass scan_head and rank_all_k_into share: calls
  /// visit(k, feasible, sum_w2_k, t) for k = 1.. until it returns false.
  /// `feasible` is the test at t_lo; `t` is the last feasible k's operating
  /// time (t_lo before the first), which visit moves to k's own.
  template <typename Visit>
  void for_each_feasible_k(const ParticleSystem& ps, double load, View& v,
                           Visit&& visit) const;

  std::vector<double> a_;          // per class
  std::vector<double> b_;          // per class
  std::vector<uint32_t> first_;    // class -> its members' offset; + end
  std::vector<uint32_t> members_;  // by class, ascending id within each
  std::vector<uint32_t> class_of_;  // machine -> class
  std::vector<uint32_t> lo_order_;  // every class, in order at t_lo
  std::vector<double> w2_fold_;     // [k]: ps.w2 added k times from 0.0
  double t_lo_ = 0.0;
};

}  // namespace detail
}  // namespace coolopt::core
