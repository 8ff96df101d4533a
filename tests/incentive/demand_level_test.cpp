#include "incentive/demand_level.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mcs::incentive {
namespace {

TEST(DemandLevel, PaperTableIII) {
  const DemandLevelScale s(5);
  // Table III: [0,0.2]->1, (0.2,0.4]->2, (0.4,0.6]->3, (0.6,0.8]->4,
  // (0.8,1.0]->5.
  EXPECT_EQ(s.level(0.0), 1);
  EXPECT_EQ(s.level(0.1), 1);
  EXPECT_EQ(s.level(0.2), 1);
  EXPECT_EQ(s.level(0.2000001), 2);
  EXPECT_EQ(s.level(0.4), 2);
  EXPECT_EQ(s.level(0.5), 3);
  EXPECT_EQ(s.level(0.6), 3);
  EXPECT_EQ(s.level(0.8), 4);
  EXPECT_EQ(s.level(0.80001), 5);
  EXPECT_EQ(s.level(1.0), 5);
}

TEST(DemandLevel, ClampsOutOfRangeInputs) {
  const DemandLevelScale s(5);
  EXPECT_EQ(s.level(-0.5), 1);
  EXPECT_EQ(s.level(1.5), 5);
}

TEST(DemandLevel, SingleLevelScale) {
  const DemandLevelScale s(1);
  EXPECT_EQ(s.level(0.0), 1);
  EXPECT_EQ(s.level(0.99), 1);
  EXPECT_EQ(s.level(1.0), 1);
}

TEST(DemandLevel, BucketEdges) {
  const DemandLevelScale s(5);
  EXPECT_DOUBLE_EQ(s.bucket_low(1), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_high(1), 0.2);
  EXPECT_DOUBLE_EQ(s.bucket_low(5), 0.8);
  EXPECT_DOUBLE_EQ(s.bucket_high(5), 1.0);
  EXPECT_THROW(s.bucket_low(0), Error);
  EXPECT_THROW(s.bucket_high(6), Error);
}

TEST(DemandLevel, RejectsBadLevelCount) {
  EXPECT_THROW(DemandLevelScale(0), Error);
  EXPECT_THROW(DemandLevelScale(-3), Error);
}

// Property: for any N, levels are monotone in demand, every level 1..N is
// reachable, and bucket edges agree with level().
class DemandLevelProperty : public ::testing::TestWithParam<int> {};

TEST_P(DemandLevelProperty, MonotoneAndConsistent) {
  const int n = GetParam();
  const DemandLevelScale s(n);
  int prev = 1;
  for (int i = 0; i <= 1000; ++i) {
    const double d = static_cast<double>(i) / 1000.0;
    const int lvl = s.level(d);
    EXPECT_GE(lvl, prev);  // monotone
    EXPECT_GE(lvl, 1);
    EXPECT_LE(lvl, n);
    prev = lvl;
  }
  for (int lvl = 1; lvl <= n; ++lvl) {
    // The bucket midpoint must map back to its level.
    const double mid = 0.5 * (s.bucket_low(lvl) + s.bucket_high(lvl));
    EXPECT_EQ(s.level(mid), lvl);
    // The inclusive upper edge belongs to the level.
    EXPECT_EQ(s.level(s.bucket_high(lvl)), lvl);
  }
}

INSTANTIATE_TEST_SUITE_P(LevelCounts, DemandLevelProperty,
                         ::testing::Values(1, 2, 3, 5, 10, 100));

}  // namespace
}  // namespace mcs::incentive
