// Golden digests of served plans at scale. The wire corpus pins rooms of up
// to 32 machines; these pin every bit the engine emits on the rooms the
// cooloptd benchmark serves: one 64-bit FNV-1a digest per family over every
// double's bit pattern, every ON flag, every shed order and every error.
//
//   sku2000/scenarios   bench::sku_model(2000, 8, 42), scenarios 1-8 at 20
//                       loads up to the room's capacity;
//   sku2000/quarantine  the same room along a 64-step one-machine quarantine
//                       walk, every scenario, loads up to and past the
//                       survivors' capacity;
//   fleet10000/8        an 8-shard fleetplan over bench::sku_model(10000, 8,
//                       42), with and without quarantines and a down shard.
//
// A digest that moves means some plan bit moved. A change that means to move
// plans regenerates the digests and says why; a speedup never does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/engine.h"
#include "fleet/fleet_engine.h"
#include "fleet/topology.h"
#include "util/rng.h"

namespace coolopt {
namespace {

class Digest {
 public:
  void bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  void result(const core::PlanResult& r) {
    str(r.error);
    u64(static_cast<uint64_t>(static_cast<int64_t>(r.shard)));
    u64(r.plan.has_value());
    if (r.plan) {
      const core::Plan& p = *r.plan;
      u64(static_cast<uint64_t>(p.scenario.number));
      f64(p.load);
      u64(p.closed_form_pure);
      const core::Allocation& a = p.allocation;
      f64(a.t_ac);
      f64(a.it_power_w);
      f64(a.cooling_power_w);
      f64(a.total_power_w);
      u64(a.loads.size());
      for (size_t i = 0; i < a.loads.size(); ++i) {
        f64(a.loads[i]);
        u64(a.on[i]);
      }
    }
    f64(r.shed_load);
    u64(r.shed_priority.size());
    for (const size_t i : r.shed_priority) u64(i);
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(PlanDigest, Sku2000EveryScenarioAt20Loads) {
  const core::PlanEngine engine(bench::sku_model(2000, 8, 42));
  const double capacity = engine.model().total_capacity();
  Digest d;
  for (const core::Scenario& s : core::Scenario::all8()) {
    for (int step = 1; step <= 20; ++step) {
      d.result(engine.solve({s, capacity * step / 20.0}));
    }
  }
  EXPECT_EQ(d.value(), 0x17f7482bff15c391ull);
}

TEST(PlanDigest, Sku2000AlongAQuarantineWalk) {
  const core::PlanEngine engine(bench::sku_model(2000, 8, 42));
  const core::RoomModel& room = engine.model();
  util::Rng rng(2024);
  std::vector<size_t> quarantined;
  // Each request's load as a fraction of the survivors' capacity: the
  // churn band, then right at the survivors' capacity and past it.
  const double fractions[] = {0.15, 0.25, 0.35, 0.6, 0.9, 1.0, 1.0002};
  Digest d;
  for (size_t step = 0; step < 64; ++step) {
    // One machine per step: in while the list is short, else a coin toss.
    if (quarantined.size() < 2 || rng.chance(0.5)) {
      // An unsorted list, and every fifth step names a machine twice.
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
    d.result(engine.solve({s, load, quarantined}));
  }
  EXPECT_EQ(d.value(), 0xb608f13ac33d783bull);
}

TEST(PlanDigest, Fleet10000In8Shards) {
  const fleet::FleetEngine fleet(
      fleet::partition_room(bench::sku_model(10000, 8, 42), 8));
  const double capacity = fleet.total_capacity();
  Digest d;
  for (int step = 1; step <= 6; ++step) {
    fleet::FleetPlanRequest request;
    request.load = capacity * (0.05 + 0.1 * step);
    if (step % 2 == 0) {
      request.quarantined = {{0, 3}, {5, 1000}, {5, 7}, {0, 3}};
    }
    if (step == 5) request.down_shards = {2};
    const fleet::FleetPlanResult r = fleet.solve(request, 2);
    d.u64(r.shard_loads.size());
    for (const double l : r.shard_loads) d.f64(l);
    for (const core::PlanResult& shard : r.shard_results) d.result(shard);
    for (const fleet::ShardStatus st : r.shard_status) {
      d.u64(static_cast<uint64_t>(st));
    }
    d.f64(r.total_power_w);
    d.f64(r.unassigned_load);
    d.f64(r.shed_load);
    d.f64(r.redistributed_load);
  }
  EXPECT_EQ(d.value(), 0xbbca8cfa03d3cf42ull);
}

}  // namespace
}  // namespace coolopt
