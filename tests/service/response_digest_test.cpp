// Golden digests of encoded responses at scale. The wire golden corpus pins
// response bytes on rooms of up to 32 machines, and plan_digest_test pins
// the plan bits behind them on the benchmark's rooms; these pin the bytes
// `encode_plan_response` and `encode_fleetplan_response` write for the same
// three request families (tests/core/plan_digest_test.cpp), and for a
// fourth whose loads all differ:
//
//   sku2000/scenarios   bench::sku_model(2000, 8, 42), scenarios 1-8 at 20
//                       loads up to the room's capacity;
//   sku2000/quarantine  the same room along a 64-step one-machine quarantine
//                       walk, every scenario, loads up to and past the
//                       survivors' capacity;
//   fleet10000/8        an 8-shard fleetplan over bench::sku_model(10000, 8,
//                       42), with and without quarantines and a down shard;
//   sku2000/distinct    the scenario-8 plans of the first family with every
//                       ON load scaled by a seeded factor in (1, 1 + 1e-6]:
//                       loads that all differ, as a room of distinct
//                       machines answers, where JsonWriter::array stops
//                       looking for repeats.
//
// One 64-bit FNV-1a digest per family over every response's bytes. An
// encoder change that keeps every byte (a faster number writer, say) keeps
// these digests; one that moves plans or the format regenerates them and
// says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/engine.h"
#include "fleet/fleet_engine.h"
#include "fleet/topology.h"
#include "service/wire.h"
#include "util/rng.h"

namespace coolopt::service {
namespace {

/// FNV-1a over the bytes of every response in turn.
class ResponseDigest {
 public:
  void add(const std::string& response) {
    for (const char c : response) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
    bytes_ += response.size();
  }
  uint64_t value() const { return h_; }
  size_t bytes() const { return bytes_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
  size_t bytes_ = 0;
};

TEST(ResponseDigest, Sku2000EveryScenarioAt20Loads) {
  const core::PlanEngine engine(bench::sku_model(2000, 8, 42));
  const double capacity = engine.model().total_capacity();
  ResponseDigest d;
  uint64_t id = 0;
  for (const core::Scenario& s : core::Scenario::all8()) {
    for (int step = 1; step <= 20; ++step) {
      d.add(encode_plan_response(++id, engine.solve({s, capacity * step / 20.0})));
    }
  }
  EXPECT_EQ(d.value(), 0x29f2c2ce2213196full) << d.bytes() << " bytes";
}

TEST(ResponseDigest, Sku2000AlongAQuarantineWalk) {
  const core::PlanEngine engine(bench::sku_model(2000, 8, 42));
  const core::RoomModel& room = engine.model();
  util::Rng rng(2024);
  std::vector<size_t> quarantined;
  const double fractions[] = {0.15, 0.25, 0.35, 0.6, 0.9, 1.0, 1.0002};
  ResponseDigest d;
  for (size_t step = 0; step < 64; ++step) {
    if (quarantined.size() < 2 || rng.chance(0.5)) {
      quarantined.push_back(rng.next_u64() % room.size());
      if (step % 5 == 4) quarantined.push_back(quarantined.front());
    } else {
      quarantined.erase(quarantined.begin() +
                        static_cast<std::ptrdiff_t>(rng.next_u64() %
                                                    quarantined.size()));
    }
    std::vector<char> off(room.size(), 0);
    for (const size_t i : quarantined) off[i] = 1;
    double survivors = 0.0;
    for (size_t i = 0; i < room.size(); ++i) {
      if (!off[i]) survivors += room.machines[i].capacity;
    }
    const core::Scenario s = core::Scenario::by_number(1 + step % 8);
    const double load = std::min(
        room.total_capacity(), survivors * fractions[step % std::size(fractions)]);
    d.add(encode_plan_response(step, engine.solve({s, load, quarantined})));
  }
  EXPECT_EQ(d.value(), 0x1be03d7a7830ddecull) << d.bytes() << " bytes";
}

TEST(ResponseDigest, Fleet10000In8Shards) {
  const fleet::FleetEngine fleet(
      fleet::partition_room(bench::sku_model(10000, 8, 42), 8));
  const double capacity = fleet.total_capacity();
  ResponseDigest d;
  for (int step = 1; step <= 6; ++step) {
    fleet::FleetPlanRequest request;
    request.load = capacity * (0.05 + 0.1 * step);
    if (step % 2 == 0) {
      request.quarantined = {{0, 3}, {5, 1000}, {5, 7}, {0, 3}};
    }
    if (step == 5) request.down_shards = {2};
    d.add(encode_fleetplan_response(static_cast<uint64_t>(step),
                                    fleet.solve(request, 2)));
  }
  EXPECT_EQ(d.value(), 0xfc8dba3975f46d85ull) << d.bytes() << " bytes";
}

TEST(ResponseDigest, Sku2000DistinctLoads) {
  const core::PlanEngine engine(bench::sku_model(2000, 8, 42));
  const double capacity = engine.model().total_capacity();
  util::Rng rng(7);
  ResponseDigest d;
  size_t on = 0;
  for (int step = 1; step <= 20; ++step) {
    core::PlanResult result =
        engine.solve({core::Scenario::by_number(8), capacity * step / 20.0});
    ASSERT_TRUE(result.plan.has_value());
    std::vector<double> scaled;
    for (double& load : result.plan->allocation.loads) {
      if (load == 0.0) continue;
      load *= 1.0 + 1e-6 * (1.0 - rng.uniform());
      scaled.push_back(load);
    }
    std::sort(scaled.begin(), scaled.end());
    EXPECT_EQ(std::adjacent_find(scaled.begin(), scaled.end()), scaled.end());
    on += scaled.size();
    d.add(encode_plan_response(static_cast<uint64_t>(step), result));
  }
  EXPECT_GT(on, 2000u);
  EXPECT_EQ(d.value(), 0x94f9db406d3b9423ull) << d.bytes() << " bytes";
}

}  // namespace
}  // namespace coolopt::service
