#include "profiling/profile_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/synthetic.h"

namespace coolopt::profiling {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(ProfileIo, RoundTripPreservesEverything) {
  core::SyntheticModelOptions o;
  o.machines = 5;
  o.seed = 77;
  const core::RoomModel original = core::make_synthetic_model(o);
  const std::string path = temp_path("coolopt_model_roundtrip.csv");
  save_model(original, path);
  const core::RoomModel loaded = load_model(path);

  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.machines[i].id, original.machines[i].id);
    EXPECT_DOUBLE_EQ(loaded.machines[i].power.w1, original.machines[i].power.w1);
    EXPECT_DOUBLE_EQ(loaded.machines[i].power.w2, original.machines[i].power.w2);
    EXPECT_DOUBLE_EQ(loaded.machines[i].thermal.alpha,
                     original.machines[i].thermal.alpha);
    EXPECT_DOUBLE_EQ(loaded.machines[i].thermal.beta,
                     original.machines[i].thermal.beta);
    EXPECT_DOUBLE_EQ(loaded.machines[i].thermal.gamma,
                     original.machines[i].thermal.gamma);
    EXPECT_DOUBLE_EQ(loaded.machines[i].capacity, original.machines[i].capacity);
  }
  EXPECT_DOUBLE_EQ(loaded.cooler.cfac, original.cooler.cfac);
  EXPECT_DOUBLE_EQ(loaded.cooler.t_sp_ref, original.cooler.t_sp_ref);
  EXPECT_DOUBLE_EQ(loaded.cooler.fan_offset_w, original.cooler.fan_offset_w);
  EXPECT_DOUBLE_EQ(loaded.cooler.q_coeff, original.cooler.q_coeff);
  EXPECT_DOUBLE_EQ(loaded.t_max, original.t_max);
  EXPECT_DOUBLE_EQ(loaded.t_ac_min, original.t_ac_min);
  EXPECT_DOUBLE_EQ(loaded.t_ac_max, original.t_ac_max);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadRejectsMissingFile) {
  EXPECT_THROW(load_model("/no/such/model.csv"), std::runtime_error);
}

TEST(ProfileIo, LoadRejectsWrongHeader) {
  const std::string path = temp_path("coolopt_model_badheader.csv");
  std::ofstream(path) << "not,the,right,header\n";
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadRejectsUnknownRowKind) {
  const std::string path = temp_path("coolopt_model_badkind.csv");
  std::ofstream(path)
      << "kind,id,w1,w2,alpha,beta,gamma,capacity\n"
      << "mystery,0,1,1,1,1,1,1\n";
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadRejectsMissingSections) {
  const std::string path = temp_path("coolopt_model_nosections.csv");
  std::ofstream(path)
      << "kind,id,w1,w2,alpha,beta,gamma,capacity\n"
      << "machine,0,1.5,36,1,0.2,0.5,40\n";
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadRejectsMalformedNumbers) {
  const std::string path = temp_path("coolopt_model_badnum.csv");
  std::ofstream(path)
      << "kind,id,w1,w2,alpha,beta,gamma,capacity\n"
      << "constraints,,48,10,28,,,\n"
      << "cooler,,45,29,140,0.1,130,\n"
      << "machine,0,oops,36,1,0.2,0.5,40\n";
  EXPECT_THROW(load_model(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ProfileIo, NonFiniteNumberIsRejected) {
  // strtod parses `nan`; validation must still refuse the model, or the
  // cooler prediction silently falls through to its floor.
  const std::string path = temp_path("coolopt_model_nan.csv");
  std::ofstream(path)
      << "kind,id,w1,w2,alpha,beta,gamma,capacity\n"
      << "constraints,,48,10,28,,,\n"
      << "cooler,,45,29,140,nan,130,\n"
      << "machine,0,1.5,36,1,0.2,0.5,40\n";
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadedModelValidates) {
  // load_model re-validates: a structurally parseable but physically
  // invalid model must be rejected.
  const std::string path = temp_path("coolopt_model_invalid.csv");
  std::ofstream(path)
      << "kind,id,w1,w2,alpha,beta,gamma,capacity\n"
      << "constraints,,48,10,28,,,\n"
      << "cooler,,45,29,140,0.1,130,\n"
      << "machine,0,-1,36,1,0.2,0.5,40\n";  // w1 < 0
  EXPECT_THROW(load_model(path), std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coolopt::profiling
