#include "device/device_spec.hpp"

#include <gtest/gtest.h>

namespace gvc::device {
namespace {

TEST(DeviceSpec, PresetsValidate) {
  DeviceSpec::v100().validate();
  DeviceSpec::a100().validate();
  DeviceSpec::laptop().validate();
  DeviceSpec::host_scaled().validate();
}

TEST(DeviceSpec, V100MatchesPaperEvaluationCard) {
  DeviceSpec v = DeviceSpec::v100();
  EXPECT_EQ(v.num_sms, 80);
  EXPECT_EQ(v.max_threads_per_block, 1024);
  EXPECT_EQ(v.max_resident_blocks(), 80 * 32);
  EXPECT_EQ(v.full_occupancy_threads(), 80 * 2048);
}

TEST(DeviceSpec, HostScaledKeepsGridSmall) {
  DeviceSpec h = DeviceSpec::host_scaled();
  EXPECT_LE(h.max_resident_blocks(), 64);
}

TEST(DeviceSpecDeathTest, RejectsInconsistentFields) {
  DeviceSpec d = DeviceSpec::v100();
  d.num_sms = 0;
  EXPECT_DEATH(d.validate(), "device needs num_sms > 0");

  d = DeviceSpec::v100();
  d.shared_mem_per_block_bytes = d.shared_mem_per_sm_bytes + 1;
  EXPECT_DEATH(d.validate(), "shared_mem_per_block <= shared_mem_per_sm");

  d = DeviceSpec::v100();
  d.max_threads_per_sm = d.max_threads_per_block - 1;
  EXPECT_DEATH(d.validate(), "max_threads_per_sm >= max_threads_per_block");
}

}  // namespace
}  // namespace gvc::device
