#include "core/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace coolopt::core {
namespace {

MachineModel basic_machine() {
  MachineModel m;
  m.id = 0;
  m.power = {1.5, 36.0};
  m.thermal = {1.0, 0.22, 0.5};
  m.capacity = 40.0;
  return m;
}

RoomModel basic_model(size_t n = 3) {
  RoomModel model;
  for (size_t i = 0; i < n; ++i) {
    MachineModel m = basic_machine();
    m.id = static_cast<int>(i);
    m.thermal.gamma = 0.2 * static_cast<double>(i);
    model.machines.push_back(m);
  }
  model.cooler = {45.0, 29.0, 140.0, 0.15, -1e300};
  model.t_max = 48.0;
  model.t_ac_min = 10.0;
  model.t_ac_max = 28.0;
  return model;
}

TEST(PowerModel, PredictIsAffine) {
  const PowerModel p{1.5, 36.0};
  EXPECT_DOUBLE_EQ(p.predict(0.0), 36.0);
  EXPECT_DOUBLE_EQ(p.predict(40.0), 96.0);
}

TEST(ThermalCoeffs, PredictIsEq8) {
  const ThermalCoeffs t{0.95, 0.2, 1.5};
  EXPECT_DOUBLE_EQ(t.predict(20.0, 60.0), 0.95 * 20.0 + 0.2 * 60.0 + 1.5);
}

TEST(CoolerModel, PredictIsEq10PlusExtensions) {
  CoolerModel c{50.0, 29.0, 140.0, 0.1, -1e300};
  EXPECT_DOUBLE_EQ(c.predict(25.0, 1000.0), 50.0 * 4.0 + 0.1 * 1000.0 + 140.0);
}

TEST(CoolerModel, FloorSaturatesPrediction) {
  CoolerModel c{50.0, 29.0, 0.0, 0.0, 120.0};
  // Linear part would be negative at T_ac > t_sp_ref; the floor holds.
  EXPECT_DOUBLE_EQ(c.predict(35.0, 0.0), 120.0);
  EXPECT_DOUBLE_EQ(c.predict(20.0, 0.0), 450.0);
}

TEST(MachineModel, KConstantMatchesEq19) {
  const MachineModel m = basic_machine();
  const double t_max = 48.0;
  const double expected =
      (t_max - 0.22 * 36.0 - 0.5) / (0.22 * 1.5);
  EXPECT_NEAR(m.k_constant(t_max), expected, 1e-12);
}

TEST(MachineModel, AbRatio) {
  const MachineModel m = basic_machine();
  EXPECT_NEAR(m.ab_ratio(), 1.0 / 0.22, 1e-12);
}

TEST(MachineModel, LoadAtTmaxMatchesEq18) {
  const MachineModel m = basic_machine();
  const double t_max = 48.0;
  const double t_ac = 20.0;
  // Check via forward substitution: at that load, predicted temp == t_max.
  const double load = m.load_at_tmax(t_max, t_ac);
  const double temp = m.thermal.predict(t_ac, m.power.predict(load));
  EXPECT_NEAR(temp, t_max, 1e-9);
}

TEST(RoomModel, TotalCapacity) {
  const RoomModel model = basic_model(4);
  EXPECT_DOUBLE_EQ(model.total_capacity(), 160.0);
}

TEST(RoomModel, ValidateAcceptsGoodModel) {
  EXPECT_NO_THROW(basic_model().validate());
}

TEST(RoomModel, ValidateRejectsEachDefect) {
  {
    RoomModel m = basic_model();
    m.machines.clear();
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.machines[0].power.w1 = 0.0;
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.machines[0].power.w2 = -1.0;
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.machines[1].thermal.alpha = -0.1;
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.machines[1].thermal.beta = 0.0;
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.machines[2].capacity = 0.0;
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.t_max = 0.0;  // unreachable: below gamma + beta*w2
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.cooler.cfac = 0.0;
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  {
    RoomModel m = basic_model();
    m.t_ac_min = 30.0;  // above t_ac_max
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
  for (const double q : {-1.0, -1.5}) {
    RoomModel m = basic_model();
    m.cooler.q_coeff = q;  // total power would not rise with IT power
    EXPECT_THROW(m.validate(), std::invalid_argument);
  }
}

TEST(RoomModel, ValidateRejectsNonFiniteFields) {
  // NaN or an infinity in any coefficient or bound (a model CSV may spell
  // them `nan` / `inf`) must be rejected, not planned with.
  using Setter = void (*)(RoomModel&, double);
  const std::vector<std::pair<const char*, Setter>> fields = {
      {"w1", [](RoomModel& m, double v) { m.machines[1].power.w1 = v; }},
      {"w2", [](RoomModel& m, double v) { m.machines[1].power.w2 = v; }},
      {"alpha", [](RoomModel& m, double v) { m.machines[1].thermal.alpha = v; }},
      {"beta", [](RoomModel& m, double v) { m.machines[1].thermal.beta = v; }},
      {"gamma", [](RoomModel& m, double v) { m.machines[1].thermal.gamma = v; }},
      {"capacity", [](RoomModel& m, double v) { m.machines[1].capacity = v; }},
      {"t_max", [](RoomModel& m, double v) { m.t_max = v; }},
      {"t_ac_min", [](RoomModel& m, double v) { m.t_ac_min = v; }},
      {"t_ac_max", [](RoomModel& m, double v) { m.t_ac_max = v; }},
      {"cfac", [](RoomModel& m, double v) { m.cooler.cfac = v; }},
      {"t_sp_ref", [](RoomModel& m, double v) { m.cooler.t_sp_ref = v; }},
      {"fan_offset_w", [](RoomModel& m, double v) { m.cooler.fan_offset_w = v; }},
      {"q_coeff", [](RoomModel& m, double v) { m.cooler.q_coeff = v; }},
      {"min_power_w", [](RoomModel& m, double v) { m.cooler.min_power_w = v; }},
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [name, set] : fields) {
    for (const double bad : {std::nan(""), inf, -inf}) {
      RoomModel m = basic_model();
      set(m, bad);
      EXPECT_THROW(m.validate(), std::invalid_argument) << name << " = " << bad;
    }
  }
  // The "no floor" default stays valid.
  RoomModel floorless = basic_model();
  floorless.cooler.min_power_w = -1.0e300;
  EXPECT_NO_THROW(floorless.validate());
}

TEST(RoomModel, UniformW1Detection) {
  RoomModel m = basic_model();
  EXPECT_TRUE(m.uniform_w1());
  // One rule: w1 within 1e-9 of the first machine's, relative.
  const double w1 = m.machines[0].power.w1;
  m.machines[1].power.w1 = w1 * (1.0 + 1e-10);
  EXPECT_TRUE(m.uniform_w1());
  m.machines[1].power.w1 = w1 * (1.0 + 1e-8);
  EXPECT_FALSE(m.uniform_w1());
  m.machines[1].power.w1 = 1.6;
  EXPECT_FALSE(m.uniform_w1());
}

TEST(RoomModel, UniformW2Detection) {
  RoomModel m = basic_model();
  EXPECT_TRUE(m.uniform_w2());
  // w2 within 1e-6 * max(1, |w2|) of the first machine's.
  const double w2 = m.machines[0].power.w2;
  ASSERT_GT(w2, 1.0);
  m.machines[1].power.w2 = w2 * (1.0 + 1e-7);
  EXPECT_TRUE(m.uniform_w2());
  m.machines[1].power.w2 = w2 * (1.0 + 1e-5);
  EXPECT_FALSE(m.uniform_w2());
  for (MachineModel& mm : m.machines) mm.power.w2 = 0.0;
  m.machines[1].power.w2 = 5e-7;  // absolute below |w2| = 1
  EXPECT_TRUE(m.uniform_w2());
}

}  // namespace
}  // namespace coolopt::core
