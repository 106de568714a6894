// Tests for the paper-sanctioned device-group extension: one compile,
// many devices (Sec. III.1).
#include <gtest/gtest.h>

#include "core/encryption_policy.h"
#include "core/group_key.h"
#include "core/software_source.h"

namespace eric::core {
namespace {

const char* kProgram = R"(
  fn main() {
    var acc = 0;
    var i = 0;
    while (i < 32) { acc = acc + i * i; i = i + 1; }
    return acc % 1000;   // 10416 % 1000 = 416
  }
)";
constexpr int64_t kExpected = 416;

// --- Device groups ------------------------------------------------------------

TEST(GroupKeyTest, OneCompileRunsOnAllMembers) {
  crypto::KeyConfig config;
  auto group = DeviceGroup::Provision({0xA1, 0xA2, 0xA3, 0xA4}, config);
  ASSERT_TRUE(group.ok()) << group.status().ToString();

  SoftwareSource source(group->group_key(), config);
  auto built = source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  const auto wire = pkg::Serialize(built->packaging.package);

  for (size_t i = 0; i < group->size(); ++i) {
    auto run = group->RunOnMember(i, wire);
    ASSERT_TRUE(run.ok()) << "member " << i << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->exec.exit_code, kExpected) << "member " << i;
  }
}

TEST(GroupKeyTest, NonMemberStillRejects) {
  crypto::KeyConfig config;
  auto group = DeviceGroup::Provision({0xB1, 0xB2}, config);
  ASSERT_TRUE(group.ok());
  SoftwareSource source(group->group_key(), config);
  auto built = source.CompileAndPackage(kProgram, EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok());
  const auto wire = pkg::Serialize(built->packaging.package);

  TrustedDevice outsider(0xB3, config);
  outsider.Enroll();
  auto run = outsider.ReceiveAndRun(wire);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kVerificationFailed);
}

TEST(GroupKeyTest, MasksDifferPerDevice) {
  crypto::KeyConfig config;
  auto group = DeviceGroup::Provision({0xC1, 0xC2, 0xC3}, config);
  ASSERT_TRUE(group.ok());
  const auto& records = group->records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_NE(records[0].conversion_mask, records[1].conversion_mask);
  EXPECT_NE(records[1].conversion_mask, records[2].conversion_mask);
}

TEST(GroupKeyTest, MaskRevealsNothingWithoutDeviceKey) {
  // The mask XOR group key = device key; without either side it is just
  // a uniformly distributed string. Spot-check: masks are not trivially
  // the group key or all-zero.
  crypto::KeyConfig config;
  auto group = DeviceGroup::Provision({0xD1, 0xD2}, config);
  ASSERT_TRUE(group.ok());
  for (const auto& record : group->records()) {
    EXPECT_NE(record.conversion_mask, group->group_key());
    crypto::Key256 zero{};
    EXPECT_NE(record.conversion_mask, zero);
  }
}

TEST(GroupKeyTest, EmptyGroupRejected) {
  crypto::KeyConfig config;
  EXPECT_FALSE(DeviceGroup::Provision({}, config).ok());
}

TEST(GroupKeyTest, OutOfRangeMemberRejected) {
  crypto::KeyConfig config;
  auto group = DeviceGroup::Provision({0xE1}, config);
  ASSERT_TRUE(group.ok());
  const std::vector<uint8_t> junk(64, 0);
  EXPECT_FALSE(group->RunOnMember(5, junk).ok());
}

TEST(GroupKeyTest, ConversionMaskRequiresEnrollment) {
  crypto::KeyConfig config;
  HardwareDecryptionEngine hde(0xF1, config);
  crypto::Key256 mask{};
  mask.fill(1);
  EXPECT_EQ(hde.ProvisionConversionMask(mask).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(GroupKeyTest, ApplyConversionMaskIsInvolution) {
  crypto::Key256 key{}, mask{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i);
    mask[i] = static_cast<uint8_t>(200 - i);
  }
  EXPECT_EQ(ApplyConversionMask(ApplyConversionMask(key, mask), mask), key);
}

}  // namespace
}  // namespace eric::core
