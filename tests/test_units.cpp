#include "common/units.hpp"

#include <gtest/gtest.h>

namespace mgfs {
namespace {

TEST(Units, BinaryConstants) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
  EXPECT_EQ(TiB, 1024ull * GiB);
}

TEST(Units, DecimalConstants) {
  EXPECT_EQ(MB, 1000u * 1000u);
  EXPECT_EQ(TB, 1000ull * GB);
}

TEST(Units, GbpsConversion) {
  // 10 GbE carries 1.25e9 bytes/s at line rate.
  EXPECT_DOUBLE_EQ(gbps(10.0), 1.25e9);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(10.0)), 10.0);
}

TEST(Units, MbpsRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps(1000.0), gbps(1.0));
}

TEST(Units, MBpsConversion) {
  EXPECT_DOUBLE_EQ(to_MBps(mB_per_s(720.0)), 720.0);
  // The paper's SC'02 result: 720 MB/s is 5.76 Gb/s.
  EXPECT_DOUBLE_EQ(to_gbps(mB_per_s(720.0)), 5.76);
}

TEST(Units, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
}

class CeilDivProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CeilDivProperty, MatchesDefinition) {
  const std::uint64_t a = GetParam();
  for (std::uint64_t b : {1ull, 2ull, 3ull, 7ull, 256ull, 4096ull}) {
    const std::uint64_t q = ceil_div(a, b);
    EXPECT_GE(q * b, a);
    if (q > 0) {
      EXPECT_LT((q - 1) * b, a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CeilDivProperty,
                         ::testing::Values(0, 1, 2, 255, 256, 257, 1000000,
                                           1ull << 40));

}  // namespace
}  // namespace mgfs
