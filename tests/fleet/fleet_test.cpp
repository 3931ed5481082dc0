// FleetEngine: topology validation errors name the offending shard, the
// water-filling split is deterministic and serves the whole target, the
// merged fleet result is bit-for-bit the per-shard engines' own answers at
// any worker count, and the fleetplan verb serves the same bytes.
#include "fleet/fleet_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/synthetic.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "util/rng.h"

namespace coolopt::fleet {
namespace {

core::RoomModel test_room(size_t machines = 20, uint64_t seed = 7) {
  core::SyntheticModelOptions options;
  options.machines = machines;
  options.seed = seed;
  return core::make_synthetic_model(options);
}

/// The benchmark's SKU room layout (perfbench/workload.cpp): the first 8
/// machine classes of synthetic seed 42 in equal shares, in an order drawn
/// from seed 1, with 3x capacity headroom.
core::RoomModel sku_room(size_t machines) {
  core::RoomModel model = test_room(machines, 42);
  std::vector<size_t> classes(machines);
  for (size_t i = 0; i < machines; ++i) classes[i] = i % 8;
  util::Rng(1).fork("room").shuffle(classes);
  const std::vector<core::MachineModel> skus(model.machines.begin(),
                                             model.machines.begin() + 8);
  for (size_t i = 0; i < machines; ++i) {
    model.machines[i] = skus[classes[i]];
    model.machines[i].id = static_cast<int>(i);
    model.machines[i].capacity *= 3.0;
  }
  return model;
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FleetTopology, ValidationNamesTheOffendingShard) {
  FleetTopology empty;
  EXPECT_NE(error_of([&] { empty.validate(); }).find("no shards"),
            std::string::npos);

  FleetTopology unnamed;
  unnamed.shards.push_back(
      FleetShard{"room-0", core::share_model(test_room(4))});
  unnamed.shards.push_back(FleetShard{"", core::share_model(test_room(4))});
  EXPECT_NE(error_of([&] { unnamed.validate(); })
                .find("shard 1 of 2 has no name"),
            std::string::npos);

  FleetTopology null_model;
  null_model.shards.push_back(
      FleetShard{"room-0", core::share_model(test_room(4))});
  null_model.shards.push_back(FleetShard{"room-1", nullptr});
  const std::string what = error_of([&] { null_model.validate(); });
  EXPECT_NE(what.find("shard 1 (room-1)"), std::string::npos) << what;
  EXPECT_NE(what.find("null room model"), std::string::npos) << what;

  FleetTopology empty_room;
  empty_room.shards.push_back(
      FleetShard{"room-0", core::share_model(core::RoomModel{})});
  EXPECT_NE(error_of([&] { empty_room.validate(); })
                .find("shard 0 (room-0) has no machines"),
            std::string::npos);
}

TEST(FleetTopology, PartitionRoomIsRoundRobinAndComplete) {
  const core::RoomModel room = test_room(10);
  const FleetTopology topo = partition_room(room, 3);
  ASSERT_EQ(topo.size(), 3u);
  EXPECT_EQ(topo.shards[0].model->size(), 4u);
  EXPECT_EQ(topo.shards[1].model->size(), 3u);
  EXPECT_EQ(topo.shards[2].model->size(), 3u);
  EXPECT_EQ(topo.total_machines(), room.size());
  // Machine i of the room is machine i/3 of shard i%3, params untouched.
  for (size_t i = 0; i < room.size(); ++i) {
    const core::MachineModel& m = topo.shards[i % 3].model->machines[i / 3];
    EXPECT_EQ(m.capacity, room.machines[i].capacity);
    EXPECT_EQ(m.power.w1, room.machines[i].power.w1);
  }
  topo.validate();

  EXPECT_NE(error_of([&] { partition_room(room, 0); }).find("0 shards"),
            std::string::npos);
  EXPECT_NE(error_of([&] { partition_room(room, 11); })
                .find("10-machine room into 11 shards"),
            std::string::npos);
}

TEST(FleetEngine, SplitLoadServesTheWholeTargetDeterministically) {
  FleetEngine fleet(partition_room(test_room(24), 4));
  const core::Scenario scenario = core::Scenario::by_number(8);
  std::vector<double> caps;
  for (size_t s = 0; s < fleet.shard_count(); ++s) {
    caps.push_back(fleet.topology().shards[s].model->total_capacity());
  }
  const double load = 0.6 * fleet.total_capacity();
  const std::vector<double> split = fleet.split_load(scenario, load, caps);
  ASSERT_EQ(split.size(), 4u);
  double assigned = 0.0;
  for (size_t s = 0; s < split.size(); ++s) {
    EXPECT_GE(split[s], 0.0);
    EXPECT_LE(split[s], caps[s] + 1e-9);
    assigned += split[s];
  }
  EXPECT_NEAR(assigned, load, 1e-9);
  // Pure function: the second call reproduces the split bit-for-bit.
  EXPECT_EQ(split, fleet.split_load(scenario, load, caps));
}

/// A room whose machine capacities span 1e-3..1e3, so a capacity fold's
/// bits depend on the order of its adds.
core::RoomModel spread_capacity_room() {
  core::RoomModel room = test_room(48, 11);
  for (size_t i = 0; i < room.size(); ++i) {
    const double step = static_cast<double>((i * 29) % 48) / 47.0;
    room.machines[i].capacity = std::pow(10.0, -3.0 + 6.0 * step);
  }
  return room;
}

// The fleet total and every per-shard cap keep the bits of the index-order
// folds: RoomModel::total_capacity per shard, summed over shards in order.
TEST(FleetCapacity, TotalIsTheTopologyFoldBitForBit) {
  const core::RoomModel room = spread_capacity_room();
  const FleetEngine fleet(partition_room(room, 4));
  ASSERT_NE(room.total_capacity(), fleet.topology().total_capacity())
      << "the order of the adds must matter here";
  EXPECT_EQ(fleet.total_capacity(), fleet.topology().total_capacity());
}

TEST(FleetCapacity, LoadJustAboveTheToleranceIsRejected) {
  const FleetEngine fleet(partition_room(spread_capacity_room(), 4));
  FleetPlanRequest request;
  request.load = fleet.topology().total_capacity() + 1e-9;
  EXPECT_NO_THROW(fleet.solve(request, 1));
  request.load = std::nextafter(request.load,
                                std::numeric_limits<double>::infinity());
  EXPECT_NE(error_of([&] { fleet.solve(request, 1); })
                .find("exceeds fleet capacity"),
            std::string::npos);
}

// The split's caps are each shard's index-order fold over its surviving
// machines, whatever the order or repetition of the quarantine list. The
// lists take out each shard's largest machines, so a shard's cap falls
// below the most its healthy frontier serves; at half the fleet's capacity
// every shard fills to that cap, and its bits reach shard_loads.
TEST(FleetCapacity, SplitCapsAreTheSurvivorsIndexOrderFold) {
  const FleetEngine fleet(partition_room(spread_capacity_room(), 4));
  const core::Scenario scenario = core::Scenario::by_number(8);
  const double load = 0.5 * fleet.total_capacity();
  const std::vector<double> frontier_max = fleet.split_load(
      scenario, load,
      std::vector<double>(4, std::numeric_limits<double>::infinity()));
  std::vector<ShardMachine> whole_shard;
  for (size_t i = 0; i < fleet.topology().shards[2].model->size(); ++i) {
    whole_shard.push_back({2, i});
  }
  const std::vector<std::vector<ShardMachine>> lists = {
      {},
      {{0, 7}},
      {{3, 10}, {1, 8}, {3, 5}, {1, 3}},
      {{2, 9}, {2, 9}, {2, 4}, {2, 9}},
      whole_shard,
  };
  for (size_t l = 0; l < lists.size(); ++l) {
    SCOPED_TRACE("quarantine list " + std::to_string(l));
    std::vector<double> caps;
    size_t binding = 0;
    for (size_t s = 0; s < fleet.shard_count(); ++s) {
      const core::RoomModel& room = *fleet.topology().shards[s].model;
      double cap = 0.0;
      for (size_t i = 0; i < room.size(); ++i) {
        const bool listed = std::any_of(
            lists[l].begin(), lists[l].end(), [&](const ShardMachine& q) {
              return q.shard == s && q.machine == i;
            });
        if (!listed) cap += room.machines[i].capacity;
      }
      if (cap > 0.0 && cap < frontier_max[s]) ++binding;
      caps.push_back(cap);
    }
    if (l > 0 && l + 1 < lists.size()) {
      EXPECT_GT(binding, 0u) << "no cap binds, so its bits go unseen";
    }
    FleetPlanRequest request;
    request.load = load;
    request.quarantined = lists[l];
    const FleetPlanResult result = fleet.solve(request, 1);
    EXPECT_EQ(result.shards_down(), 0u);
    EXPECT_EQ(result.shard_loads, fleet.split_load(scenario, load, caps));
  }
}

TEST(FleetEngine, SolveMergesExactlyThePerShardEngineAnswers) {
  FleetEngine fleet(partition_room(test_room(24), 4));
  FleetPlanRequest request;
  request.load = 0.55 * fleet.total_capacity();
  request.quarantined = {ShardMachine{1, 2}, ShardMachine{3, 0}};
  const FleetPlanResult result = fleet.solve(request);

  ASSERT_EQ(result.shard_results.size(), 4u);
  EXPECT_EQ(result.unassigned_load, 0.0);
  double power = 0.0;
  for (size_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const core::PlanResult& r = result.shard_results[s];
    EXPECT_EQ(r.shard, static_cast<int>(s));
    ASSERT_TRUE(r.plan.has_value()) << r.error;
    power += r.plan->allocation.total_power_w;

    // Re-solving the shard's own engine with the same sub-request must
    // reproduce the merged entry bit-for-bit.
    core::PlanRequest direct(request.scenario, result.shard_loads[s]);
    if (s == 1) direct.quarantined = {2};
    if (s == 3) direct.quarantined = {0};
    direct.shard = static_cast<int>(s);
    const core::PlanResult again = fleet.engine(s).solve(direct);
    EXPECT_EQ(r.plan->allocation.on, again.plan->allocation.on);
    EXPECT_EQ(r.plan->allocation.loads, again.plan->allocation.loads);
    EXPECT_EQ(r.plan->allocation.total_power_w,
              again.plan->allocation.total_power_w);
  }
  EXPECT_EQ(result.total_power_w, power);
  // The quarantined machines stayed off in their shards.
  EXPECT_FALSE(result.shard_results[1].plan->allocation.on[2]);
  EXPECT_FALSE(result.shard_results[3].plan->allocation.on[0]);
}

TEST(FleetEngine, SolveIsWorkerCountInvariant) {
  FleetEngine fleet(partition_room(test_room(20), 5));
  FleetPlanRequest request;
  request.load = 0.7 * fleet.total_capacity();
  request.quarantined = {ShardMachine{0, 1}};

  const FleetPlanResult r1 = fleet.solve(request, 1);
  for (const size_t workers : {2u, 8u}) {
    const FleetPlanResult rw = fleet.solve(request, workers);
    EXPECT_EQ(r1.shard_loads, rw.shard_loads);
    EXPECT_EQ(r1.total_power_w, rw.total_power_w);
    EXPECT_EQ(r1.shed_load, rw.shed_load);
    for (size_t s = 0; s < r1.shard_results.size(); ++s) {
      EXPECT_EQ(r1.shard_results[s].plan->allocation.loads,
                rw.shard_results[s].plan->allocation.loads);
      EXPECT_EQ(r1.shard_results[s].plan->allocation.on,
                rw.shard_results[s].plan->allocation.on);
    }
  }
}

// A repeated {shard, machine} entry quarantines that machine once: the
// shard's shed order lists it once, and the whole result is the one the
// de-duplicated list gets. With 3x capacity headroom the thermal ceiling
// binds, so shard 1 sheds at this load.
TEST(FleetEngine, RepeatedQuarantineEntryIsShedOnce) {
  const FleetEngine fleet(partition_room(sku_room(40), 2));
  FleetPlanRequest repeated;
  repeated.load = 0.4 * fleet.total_capacity();
  repeated.quarantined = {ShardMachine{1, 2}, ShardMachine{1, 2},
                          ShardMachine{0, 1}};
  FleetPlanRequest once = repeated;
  once.quarantined = {ShardMachine{1, 2}, ShardMachine{0, 1}};

  const FleetPlanResult a = fleet.solve(repeated, 1);
  const FleetPlanResult b = fleet.solve(once, 1);
  EXPECT_EQ(a.shard_loads, b.shard_loads);
  EXPECT_EQ(a.shed_load, b.shed_load);
  ASSERT_EQ(a.shard_results.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(a.shard_results[s].shed_priority,
              b.shard_results[s].shed_priority);
    EXPECT_EQ(a.shard_results[s].plan->allocation.loads,
              b.shard_results[s].plan->allocation.loads);
  }
  const core::PlanResult& shedding = a.shard_results[1];
  ASSERT_GT(shedding.shed_load, 0.0);
  EXPECT_EQ(shedding.shed_priority.size(), fleet.engine(1).model().size());
  EXPECT_EQ(shedding.shed_priority.front(), 2u);
}

// Frontier sampling solves every shard at exactly its capacity. For the
// Even scenarios on these 1250-machine shards that load used to throw
// ("even_allocation: load exceeds the ON set's capacity"), failing every
// fleet solve of scenarios 1 and 4.
TEST(FleetEngine, EvenScenariosSampleShardsUpToExactCapacity) {
  const FleetEngine fleet(partition_room(sku_room(10000), 8));
  for (const int s : {1, 4}) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    FleetPlanRequest request;
    request.scenario = core::Scenario::by_number(s);
    request.load = 0.25 * fleet.total_capacity();
    FleetPlanResult result;
    ASSERT_NO_THROW(result = fleet.solve(request));
    EXPECT_TRUE(result.feasible());
  }
}

TEST(FleetEngine, ErrorsNameTheOffendingShard) {
  FleetEngine fleet(partition_room(test_room(12), 3));
  EXPECT_NE(error_of([&] { fleet.engine(7); })
                .find("shard 7 out of range (fleet has 3 shards)"),
            std::string::npos);

  FleetPlanRequest bad_shard;
  bad_shard.load = 10.0;
  bad_shard.quarantined = {ShardMachine{5, 0}};
  EXPECT_NE(error_of([&] { fleet.solve(bad_shard); })
                .find("shard 5 but the fleet has 3 shards"),
            std::string::npos);

  FleetPlanRequest bad_machine;
  bad_machine.load = 10.0;
  bad_machine.quarantined = {ShardMachine{1, 9}};
  const std::string what = error_of([&] { fleet.solve(bad_machine); });
  EXPECT_NE(what.find("machine 9 in shard 1 (room-1)"), std::string::npos)
      << what;

  FleetPlanRequest over;
  over.load = fleet.total_capacity() * 2.0;
  EXPECT_NE(error_of([&] { fleet.solve(over); }).find("exceeds fleet capacity"),
            std::string::npos);
}

/// The service contract extended to fleetplan: the bytes a client gets are
/// exactly encode_fleetplan_response over a direct FleetEngine call.
TEST(FleetEngine, FleetplanVerbServesDirectEngineBytes) {
  service::ServiceConfig config;
  config.model = core::share_model(test_room(20));
  config.fleet_shards = 4;
  service::PlanningService server(std::move(config));
  server.start();
  ASSERT_NE(server.fleet_engine(), nullptr);

  service::ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  service::WireRequest request;
  request.id = 31;
  request.verb = service::Verb::kFleetplan;
  request.load_pct = 55.0;
  request.fleet_quarantined = {ShardMachine{2, 1}};
  ASSERT_TRUE(client.send_line(service::encode_request(request)));
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());

  FleetPlanRequest direct;
  direct.scenario = core::Scenario::by_number(request.scenario);
  direct.load = request.load_pct / 100.0 * server.info().capacity_files_s;
  direct.quarantined = request.fleet_quarantined;
  EXPECT_EQ(*line, service::encode_fleetplan_response(
                       request.id, server.fleet_engine()->solve(direct)));

  // Out-of-range quarantine comes back as invalid_argument, not a hangup.
  request.id = 32;
  request.fleet_quarantined = {ShardMachine{9, 0}};
  ASSERT_TRUE(client.send_line(service::encode_request(request)));
  const auto error_line = client.recv_line();
  ASSERT_TRUE(error_line.has_value());
  EXPECT_NE(error_line->find("invalid_argument"), std::string::npos);
  EXPECT_NE(error_line->find("shard 9"), std::string::npos);
  server.stop();
}

// --- shard failure domains (issue 10) ---

TEST(FleetFailure, DownShardLoadIsRedistributedAcrossSurvivors) {
  FleetEngine fleet(partition_room(test_room(24), 4));
  FleetPlanRequest request;
  request.load = 0.5 * fleet.total_capacity();
  request.down_shards = {1};
  const FleetPlanResult result = fleet.solve(request);

  ASSERT_EQ(result.shard_status.size(), 4u);
  EXPECT_EQ(result.shard_status[1], ShardStatus::kDown);
  EXPECT_EQ(result.shards_down(), 1u);
  EXPECT_EQ(result.shard_loads[1], 0.0);
  // The down shard's share lives on in the survivors: nothing is lost.
  double assigned = 0.0;
  for (const double l : result.shard_loads) assigned += l;
  EXPECT_NEAR(assigned, request.load, 1e-9);
  EXPECT_EQ(result.shed_load, 0.0);
  EXPECT_TRUE(result.feasible());
  // Someone had to absorb the displaced load, and the books say who/how much.
  EXPECT_GT(result.redistributed_load, 0.0);
  bool any_degraded = false;
  for (const ShardStatus s : result.shard_status) {
    any_degraded = any_degraded || s == ShardStatus::kDegraded;
  }
  EXPECT_TRUE(any_degraded);
}

TEST(FleetFailure, DegradedPlanIsBitForBitReproducible) {
  FleetEngine fleet(partition_room(test_room(24), 4));
  FleetPlanRequest request;
  request.load = 0.45 * fleet.total_capacity();
  request.down_shards = {0, 2};
  const FleetPlanResult a = fleet.solve(request, 1);
  const FleetPlanResult b = fleet.solve(request, 8);
  EXPECT_EQ(a.shard_loads, b.shard_loads);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.redistributed_load, b.redistributed_load);
  EXPECT_EQ(a.shard_status, b.shard_status);
  for (size_t s = 0; s < a.shard_results.size(); ++s) {
    if (a.shard_status[s] == ShardStatus::kDown) continue;
    ASSERT_TRUE(a.shard_results[s].plan.has_value());
    EXPECT_EQ(a.shard_results[s].plan->allocation.loads,
              b.shard_results[s].plan->allocation.loads);
    EXPECT_EQ(a.shard_results[s].plan->allocation.on,
              b.shard_results[s].plan->allocation.on);
  }
}

TEST(FleetFailure, CrashedShardSolveIsTreatedLikeADeclaredDownShard) {
  FleetEngine fleet(partition_room(test_room(24), 4));
  FleetPlanRequest crash;
  crash.load = 0.5 * fleet.total_capacity();
  crash.fault_shards = {2};
  const FleetPlanResult crashed = fleet.solve(crash);
  EXPECT_EQ(crashed.shard_status[2], ShardStatus::kDown);
  EXPECT_NE(crashed.shard_results[2].error.find("injected fault in shard 2"),
            std::string::npos);
  EXPECT_TRUE(crashed.feasible());

  // The surviving plan is identical to declaring the shard down up front:
  // the crash path converges to the same zero-capacity re-split.
  FleetPlanRequest declared;
  declared.load = crash.load;
  declared.down_shards = {2};
  const FleetPlanResult down = fleet.solve(declared);
  EXPECT_EQ(crashed.shard_loads, down.shard_loads);
  EXPECT_EQ(crashed.total_power_w, down.total_power_w);
  EXPECT_EQ(crashed.redistributed_load, down.redistributed_load);
}

TEST(FleetFailure, OutOfRangeFailureIndicesThrow) {
  FleetEngine fleet(partition_room(test_room(12), 3));
  FleetPlanRequest down;
  down.load = 10.0;
  down.down_shards = {9};
  EXPECT_NE(error_of([&] { fleet.solve(down); })
                .find("shard 9 but the fleet has 3 shards"),
            std::string::npos);
  FleetPlanRequest fault;
  fault.load = 10.0;
  fault.fault_shards = {3};
  EXPECT_NE(error_of([&] { fleet.solve(fault); })
                .find("shard 3 but the fleet has 3 shards"),
            std::string::npos);
}

TEST(FleetFailure, AllShardsDownShedsEverythingInfeasibly) {
  FleetEngine fleet(partition_room(test_room(12), 3));
  FleetPlanRequest request;
  request.load = 0.3 * fleet.total_capacity();
  request.down_shards = {0, 1, 2};
  const FleetPlanResult result = fleet.solve(request);
  EXPECT_EQ(result.shards_down(), 3u);
  EXPECT_NEAR(result.unassigned_load, request.load, 1e-9);
  EXPECT_FALSE(result.feasible());
}

/// The degraded fleetplan response is still exactly the direct engine's
/// bytes, and it carries the failure-domain accounting.
TEST(FleetFailure, FleetplanVerbServesDegradedBytes) {
  service::ServiceConfig config;
  config.model = core::share_model(test_room(24));
  config.fleet_shards = 8;
  service::PlanningService server(std::move(config));
  server.start();

  service::ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  service::WireRequest request;
  request.id = 41;
  request.verb = service::Verb::kFleetplan;
  request.load_pct = 50.0;
  request.down_shards = {2, 5};
  ASSERT_TRUE(client.send_line(service::encode_request(request)));
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());

  FleetPlanRequest direct;
  direct.scenario = core::Scenario::by_number(request.scenario);
  direct.load = request.load_pct / 100.0 * server.info().capacity_files_s;
  direct.down_shards = request.down_shards;
  EXPECT_EQ(*line, service::encode_fleetplan_response(
                       request.id, server.fleet_engine()->solve(direct)));
  EXPECT_NE(line->find("\"shards_down\":2"), std::string::npos);
  EXPECT_NE(line->find("\"status\":\"down\""), std::string::npos);

  // The health verb now reports the statuses that solve observed.
  service::WireRequest probe;
  probe.id = 42;
  probe.verb = service::Verb::kHealth;
  ASSERT_TRUE(client.send_line(service::encode_request(probe)));
  const auto health = client.recv_line();
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->find("\"verb\":\"health\""), std::string::npos);
  EXPECT_NE(health->find("\"status\":\"down\""), std::string::npos);
  server.stop();
}

TEST(FleetEngine, MonolithicServerRejectsFleetplan) {
  service::ServiceConfig config;
  config.model = core::share_model(test_room(8));
  service::PlanningService server(std::move(config));
  server.start();
  service::ServiceClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  service::WireRequest request;
  request.id = 1;
  request.verb = service::Verb::kFleetplan;
  request.load_pct = 40.0;
  ASSERT_TRUE(client.send_line(service::encode_request(request)));
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("unsupported_verb"), std::string::npos);
  EXPECT_NE(line->find("--fleet-shards"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace coolopt::fleet
