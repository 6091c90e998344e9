#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mgfs {
namespace {

TEST(Histogram, CountsAndMean) {
  Histogram h(1.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(2.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 2.5);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, OverflowBucket) {
  Histogram h(1.0, 2);  // covers [0, 2)
  h.add(5.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MedianOfUniformFill) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.5, 0.5);
}

TEST(Histogram, QuantileClamped) {
  Histogram h(1.0, 4);
  h.add(1.5);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, MergeAccumulatesBinsAndExtremes) {
  Histogram a(1.0, 100, "a");
  Histogram b(1.0, 100, "b");
  a.add(5.5);
  b.add(20.5);
  b.add(20.5);
  b.add(200.0);  // overflow travels with the merge
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_NEAR(a.quantile(0.0), 5.5, 1.0);
  EXPECT_NEAR(a.quantile(0.5), 20.5, 1.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.5);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  // Merging an empty histogram is a no-op.
  Histogram empty(1.0, 100);
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Histogram, MergeIntoAnUntouchedHistogram) {
  // Bins are allocated on first use; an untouched histogram still takes
  // a merge, and one that only ever overflowed still has none.
  Histogram into(1.0, 100);
  Histogram from(1.0, 100);
  from.add(7.5);
  from.add(7.5);
  from.add(300.0);
  into.merge(from);
  EXPECT_EQ(into.count(), 3u);
  EXPECT_EQ(into.overflow(), 1u);
  EXPECT_NEAR(into.quantile(0.5), 7.5, 1.0);
  Histogram over(1.0, 100);
  over.add(500.0);
  Histogram sum(1.0, 100);
  sum.merge(over);
  EXPECT_EQ(sum.overflow(), 1u);
  EXPECT_DOUBLE_EQ(sum.quantile(0.5), 500.0);
  sum.add(3.5);
  EXPECT_NEAR(sum.quantile(0.0), 3.5, 1.0);
}

TEST(Histogram, PrintSummaryLine) {
  Histogram h(0.001, 100, "recall");
  h.add(0.010);
  std::ostringstream os;
  h.print(os, "s");
  EXPECT_NE(os.str().find("recall"), std::string::npos);
  EXPECT_NE(os.str().find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace mgfs
