// Parameterized physics sweeps: the invariants of the simulated room must
// hold across sizes, set points, loads and diversity settings — not just
// at the single configuration the unit tests pin.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "sim/room.h"
#include "util/strings.h"

namespace coolopt::sim {
namespace {

struct RoomCase {
  size_t servers;
  double setpoint_c;
  double utilization;
  double diversity;
  uint64_t seed;
};

class RoomPhysics : public ::testing::TestWithParam<RoomCase> {
 protected:
  static RoomConfig config(const RoomCase& c) {
    RoomConfig cfg;
    cfg.num_servers = c.servers;
    cfg.seed = c.seed;
    cfg.diversity_scale = c.diversity;
    return cfg;
  }
};

TEST_P(RoomPhysics, EnergyConservationAtSteadyState) {
  const RoomCase c = GetParam();
  MachineRoom room(config(c));
  room.set_uniform_utilization(c.utilization);
  room.set_setpoint_c(c.setpoint_c);
  room.settle();
  EXPECT_NEAR(room.heat_balance_residual_w(), 0.0, 1e-5);
}

TEST_P(RoomPhysics, ReturnTrackedOrCoilOff) {
  const RoomCase c = GetParam();
  MachineRoom room(config(c));
  room.set_uniform_utilization(c.utilization);
  room.set_setpoint_c(c.setpoint_c);
  room.settle();
  if (room.crac().cooling_rate_w() > 1e-9 && !room.crac().saturated()) {
    EXPECT_NEAR(room.return_temp_c(), c.setpoint_c, 1e-6);
  } else {
    // Coil off: the room floats below the set point; saturated: above.
    EXPECT_TRUE(room.return_temp_c() <= c.setpoint_c + 1e-6 ||
                room.crac().saturated());
  }
}

TEST_P(RoomPhysics, Eq5HoldsPerServer) {
  const RoomCase c = GetParam();
  MachineRoom room(config(c));
  room.set_uniform_utilization(c.utilization);
  room.set_setpoint_c(c.setpoint_c);
  room.settle();
  for (size_t i = 0; i < room.size(); ++i) {
    const ServerTruth& t = room.server(i).truth();
    const double beta = 1.0 / (t.fan_flow_m3s * room.config().crac.c_air) +
                        t.cpu_heat_fraction / t.cpu_box_exchange;
    EXPECT_NEAR(room.true_cpu_temp_c(i),
                room.true_inlet_temp_c(i) + beta * room.server(i).power_draw_w(),
                1e-6)
        << "server " << i;
  }
}

TEST_P(RoomPhysics, SupplyNeverBelowCoilLimitNorAboveReturn) {
  const RoomCase c = GetParam();
  MachineRoom room(config(c));
  room.set_uniform_utilization(c.utilization);
  room.set_setpoint_c(c.setpoint_c);
  room.settle();
  EXPECT_GE(room.supply_temp_c(), room.config().crac.min_supply_c - 1e-9);
  EXPECT_LE(room.supply_temp_c(), room.return_temp_c() + 1e-9);
}

TEST_P(RoomPhysics, CpuHotterThanInletWhenLoaded) {
  const RoomCase c = GetParam();
  MachineRoom room(config(c));
  room.set_uniform_utilization(c.utilization);
  room.set_setpoint_c(c.setpoint_c);
  room.settle();
  for (size_t i = 0; i < room.size(); ++i) {
    EXPECT_GT(room.true_cpu_temp_c(i), room.true_inlet_temp_c(i) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoomPhysics,
    ::testing::Values(
        RoomCase{4, 20.0, 0.0, 1.0, 1}, RoomCase{4, 20.0, 1.0, 1.0, 1},
        RoomCase{4, 29.0, 0.5, 1.0, 2}, RoomCase{12, 22.0, 0.3, 1.0, 3},
        RoomCase{12, 26.0, 0.9, 1.0, 4}, RoomCase{20, 24.0, 0.6, 1.0, 5},
        RoomCase{20, 24.0, 0.6, 0.0, 5}, RoomCase{20, 18.0, 1.0, 1.5, 6},
        RoomCase{7, 31.0, 0.1, 1.0, 7}, RoomCase{30, 23.0, 0.7, 1.0, 8}),
    [](const ::testing::TestParamInfo<RoomCase>& info) {
      const RoomCase& c = info.param;
      return util::strf("n%zu_sp%d_u%d_d%d_s%llu", c.servers,
                        static_cast<int>(c.setpoint_c),
                        static_cast<int>(c.utilization * 100),
                        static_cast<int>(c.diversity * 100),
                        static_cast<unsigned long long>(c.seed));
    });

}  // namespace
}  // namespace coolopt::sim
