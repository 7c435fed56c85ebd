#include "harness/latency.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(LatencyRecorder, NearestRankPercentilesAndBeyondCounts) {
  LatencyRecorder r(100);
  for (int i = 100; i >= 1; --i) r.record(static_cast<double>(i));
  EXPECT_EQ(r.count(), 100u);
  const Percentile p50 = r.percentile(0.50);
  EXPECT_DOUBLE_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p90 = r.percentile(0.90);
  EXPECT_DOUBLE_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.supported());
  const Percentile p99 = r.percentile(0.99);
  EXPECT_DOUBLE_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_FALSE(p99.supported());
  EXPECT_DOUBLE_EQ(r.percentile(1.0).value, 100.0);
  EXPECT_DOUBLE_EQ(r.mean(), 50.5);
}

TEST(LatencyRecorder, ExactValuesNotBucketEdges) {
  // A bucketed histogram would report an edge above the observed maximum;
  // an order statistic never leaves the sample.
  LatencyRecorder r(1000);
  for (int i = 0; i < 1000; ++i) r.record(0.9708 + 1e-6 * i);
  EXPECT_LE(r.percentile(0.99).value, r.percentile(1.0).value);
  EXPECT_DOUBLE_EQ(r.percentile(0.99).value, 0.9708 + 1e-6 * 989);
}

TEST(LatencyRecorder, FullBufferCountsOverflowInsteadOfGrowing) {
  LatencyRecorder r(3);
  for (int i = 0; i < 5; ++i) r.record(1.0);
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.overflow(), 2u);
  EXPECT_EQ(r.capacity(), 3u);
}

TEST(LatencyRecorder, EmptyAndSingleSample) {
  LatencyRecorder empty(4);
  EXPECT_EQ(empty.percentile(0.5).value, 0.0);
  EXPECT_EQ(empty.percentile(0.5).beyond, 0u);
  LatencyRecorder one(4);
  one.record(7.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.01).value, 7.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.99).value, 7.0);
  EXPECT_EQ(one.percentile(0.99).beyond, 0u);
}

TEST(LatencyRecorder, MergeConcatenatesAndResorts) {
  LatencyRecorder a(2);
  a.record(3.0);
  a.record(1.0);
  EXPECT_DOUBLE_EQ(a.percentile(1.0).value, 3.0);
  LatencyRecorder b(2);
  b.record(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.percentile(1.0).value, 10.0);
  EXPECT_DOUBLE_EQ(a.percentile(0.5).value, 3.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
