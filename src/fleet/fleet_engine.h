// FleetEngine — datacenter-scale planning as a two-level decomposition.
//
// Level 1 (this class): split a global load target across room shards via
// a marginal-cost water-filling over each shard's cached power-vs-load
// frontier, then cap every shard at its surviving capacity.
// Level 2 (core::PlanEngine, one per shard): the paper's single-room
// machinery — closed form, bounded solver, Algorithm 2's consolidation —
// runs unchanged inside each shard, including the incremental quarantine
// path.
//
// The frontier: for each shard and scenario the engine samples the shard's
// own optimal solve at evenly spaced loads up to the shard capacity and
// keeps the lower convex envelope of the (served load, predicted power)
// points. Water-filling then hands every marginal file/s to the shard
// whose next envelope segment has the cheapest slope (W per file/s), with
// deterministic tie-breaks (slope, then shard index, then segment index).
// Consolidation makes the true frontier non-convex, so the envelope is a
// relaxation: the split is near-optimal, while each shard's plan for its
// assigned load remains exactly the single-room optimum. Frontiers are
// sampled once per scenario and cached for the engine's lifetime.
//
// Per-request cost: outside the shard solves a fleetplan pays
// O(shards + quarantined machines) — the validation of its lists, the
// split over the cached frontiers and the merge. A shard's capacity is its
// engine's cached fold (PlanEngine::aggregates()), and the fleet total is
// folded once at construction. The one room-sized pass left is per shard
// with a quarantined machine: it folds its survivors' capacity in index
// order, as that shard's restricted solve walks its room anyway.
//
// Determinism: frontiers, the split, and every shard solve are pure
// functions of (topology, scenario, load, quarantines); shard results land
// in index-addressed slots, so worker count and cache temperature cannot
// change a byte of the outcome — each shard's PlanResult is bit-for-bit
// what engine(s).solve() returns for the same request.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/engine.h"
#include "fleet/topology.h"

namespace coolopt::util {
class ThreadPool;
}  // namespace coolopt::util

namespace coolopt::fleet {

/// One machine inside one shard, for fleet-level quarantine lists.
struct ShardMachine {
  size_t shard = 0;
  size_t machine = 0;
};

/// Per-shard serving status after a fleet solve. A shard is `kDown` when
/// the caller declared it unavailable or its solve threw; `kDegraded` when
/// it survived but absorbed load redistributed off a down shard (or shed
/// some of its own); `kOk` when it served exactly its healthy share.
enum class ShardStatus { kOk, kDegraded, kDown };

const char* to_string(ShardStatus status);

/// A fleet-level planning query: one scenario and one global load target.
struct FleetPlanRequest {
  core::Scenario scenario = core::Scenario::by_number(8);
  double load = 0.0;  ///< global target, files/s
  /// Machines the planner must leave OFF, addressed as (shard, machine).
  /// Out-of-range indices throw, naming the offending shard.
  std::vector<ShardMachine> quarantined;
  /// Shards declared unavailable before the solve (failed health checks,
  /// maintenance). They are excluded from the split, never solved, and
  /// their healthy share of the load is re-water-filled across the
  /// survivors against the cached frontiers. Out-of-range indices throw.
  std::vector<size_t> down_shards;
  /// Test seam for the crashed-shard path: these shards' solves throw
  /// deterministically, which the engine treats exactly like a real crash
  /// (mark down, record the error, redistribute the load).
  std::vector<size_t> fault_shards;
  /// Optional request tracing: when non-null, solve() records a
  /// "fleet.solve" span with a "fleet.split" child and one
  /// "shard.engine.solve" slot per shard (detail = shard index). Slots are
  /// pre-opened before the parallel fan-out, so shard workers never mutate
  /// the context structure concurrently. Never owned; nullptr = untraced.
  obs::SpanContext* spans = nullptr;
};

/// Deterministic merge of the per-shard results.
struct FleetPlanResult {
  /// Load assigned to each shard by the water-filling split (index ==
  /// shard). Sums to the request load minus `unassigned_load`.
  std::vector<double> shard_loads;
  /// Result of each shard's own PlanEngine::solve, shard attribution set.
  std::vector<core::PlanResult> shard_results;
  double total_power_w = 0.0;  ///< sum over shards with a plan
  /// Load the splitter could not place anywhere (every shard at its
  /// thermal/capacity cap) — shed before any shard even solved.
  double unassigned_load = 0.0;
  /// Total files/s shed: unassigned_load plus the shards' own shed_load.
  double shed_load = 0.0;
  double solve_us = 0.0;
  /// Per-shard status (index == shard). Down shards keep the solve error
  /// (when they crashed rather than being declared down) in
  /// `shard_results[s].error`.
  std::vector<ShardStatus> shard_status;
  /// Load moved onto survivors relative to the all-shards-healthy split —
  /// what the failure domain cost the rest of the fleet.
  double redistributed_load = 0.0;

  size_t shards_down() const;

  /// True only when every *serving* shard produced a plan and nothing was
  /// shed: down shards whose load the survivors fully absorbed do not make
  /// the fleet plan infeasible — that is the point of the failure domain.
  bool feasible() const;
};

struct FleetOptions {
  core::PlannerOptions planner;
};

class FleetEngine {
 public:
  /// Validates the topology (errors name the offending shard) and builds
  /// one PlanEngine per shard. Frontiers are sampled lazily per scenario.
  explicit FleetEngine(FleetTopology topology, FleetOptions options = {});
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  size_t shard_count() const { return topology_.size(); }
  const FleetTopology& topology() const { return topology_; }
  /// topology().total_capacity(), folded once at construction.
  double total_capacity() const { return total_capacity_; }
  /// The shard's own engine; throws std::invalid_argument naming the shard
  /// index and the fleet size when out of range.
  const core::PlanEngine& engine(size_t shard) const;

  /// Splits, solves every shard in parallel (`workers` == 0 uses an
  /// engine-owned pool), and merges deterministically. Throws
  /// std::invalid_argument on negative load, load above fleet capacity, or
  /// an out-of-range quarantine target (the error names the shard).
  FleetPlanResult solve(const FleetPlanRequest& request, size_t workers = 0) const;

  /// The water-filling split alone (introspection for tests/benches):
  /// per-shard loads for a global target under per-shard caps.
  std::vector<double> split_load(const core::Scenario& scenario, double load,
                                 const std::vector<double>& shard_caps) const;

 private:
  struct FrontierPoint {
    double load = 0.0;     // served load at this sample (shed removed)
    double power_w = 0.0;  // predicted total power at that load
  };
  struct ShardFrontier {
    std::vector<FrontierPoint> hull;  // lower convex envelope, load ascending
    double max_load = 0.0;            // largest load the shard ever served
  };

  const std::vector<ShardFrontier>& frontiers_for(const core::Scenario& s) const;
  util::ThreadPool& default_pool() const;

  FleetTopology topology_;
  FleetOptions options_;
  std::vector<std::unique_ptr<core::PlanEngine>> engines_;
  double total_capacity_ = 0.0;  // topology_.total_capacity()

  mutable std::mutex frontier_mu_;
  mutable std::map<int, std::vector<ShardFrontier>> frontiers_;  // by scenario

  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace coolopt::fleet
