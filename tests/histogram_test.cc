// Tests for the exponential-bucket latency histogram.
#include <gtest/gtest.h>

#include "util/histogram.h"

namespace bpw {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000.0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  for (uint64_t v : {10u, 20u, 30u, 40u}) h.Record(v);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
}

TEST(HistogramTest, SmallValuesExactBuckets) {
  // Values 0..3 land in their own buckets, so percentiles are exact.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(0);
  for (int i = 0; i < 100; ++i) h.Record(3);
  EXPECT_LE(h.Percentile(25), 1.0);
  EXPECT_GE(h.Percentile(90), 2.0);
}

TEST(HistogramTest, PercentileOrdering) {
  Histogram h;
  for (uint64_t i = 1; i <= 10000; ++i) h.Record(i);
  double p10 = h.Percentile(10);
  double p50 = h.Percentile(50);
  double p90 = h.Percentile(90);
  double p99 = h.Percentile(99);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  // Buckets are ~1/8 wide at the top, so allow 15% relative error.
  EXPECT_NEAR(p50, 5000, 5000 * 0.15);
  EXPECT_NEAR(p90, 9000, 9000 * 0.15);
}

TEST(HistogramTest, PercentileBoundedByMinMax) {
  Histogram h;
  h.Record(500);
  h.Record(1500);
  for (double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), 500.0);
    EXPECT_LE(h.Percentile(p), 1500.0);
  }
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  for (int i = 0; i < 50; ++i) a.Record(100);
  for (int i = 0; i < 50; ++i) b.Record(10000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 10000u);
  EXPECT_NEAR(a.Mean(), 5050.0, 1.0);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsOtherStats) {
  // The empty target's min sentinel must not leak into the result: after
  // merging into a never-recorded histogram, min/max/mean are the source's.
  Histogram a, b;
  b.Record(100);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_DOUBLE_EQ(a.Mean(), 200.0);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(a.Percentile(p), 100.0);
    EXPECT_LE(a.Percentile(p), 300.0);
  }
}

TEST(HistogramTest, MergeEmptyIsNoop) {
  Histogram a, b;
  a.Record(42);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(1);
  h.Record(1000000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Record(~0ULL);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), ~0ULL);
}

TEST(HistogramTest, BucketBoundsRiseAndRoundTripOverEveryBucket) {
  // Every bucket index is a valid BucketLow argument (the contention
  // profiler and the percentile interpolation walk all kNumBuckets): the
  // bounds never decrease, and every bucket a value can land in maps back
  // to itself.
  const int last_reachable = Histogram::BucketFor(~0ULL);
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    EXPECT_GE(Histogram::BucketLow(b), Histogram::BucketLow(b - 1))
        << "bucket " << b;
    if (b <= last_reachable) {
      EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLow(b)), b)
          << "bucket " << b;
    }
  }
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Record(5);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

}  // namespace
}  // namespace bpw
