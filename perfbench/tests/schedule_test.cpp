#include "harness/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "harness/serving.hpp"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameSchedule) {
  EXPECT_EQ(poisson_schedule(1000.0, 2.0, 42), poisson_schedule(1000.0, 2.0, 42));
  EXPECT_NE(poisson_schedule(1000.0, 2.0, 42), poisson_schedule(1000.0, 2.0, 43));
}

TEST(PoissonSchedule, SortedWithinWindowAtTheRequestedRate) {
  const std::vector<double> s = poisson_schedule(5000.0, 4.0, 7);
  ASSERT_FALSE(s.empty());
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_GE(s.front(), 0.0);
  EXPECT_LT(s.back(), 4.0);
  // 20000 expected arrivals; sd = sqrt(20000) ~ 141.
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 5 * 141.0);
}

TEST(PoissonSchedule, DegenerateInputsGiveNoArrivals) {
  EXPECT_TRUE(poisson_schedule(0.0, 1.0, 1).empty());
  EXPECT_TRUE(poisson_schedule(100.0, 0.0, 1).empty());
}

TEST(SenderSchedules, SplitRateAcrossSendersDeterministically) {
  const auto a = sender_schedules(4000.0, 2.0, 4, 9);
  const auto b = sender_schedules(4000.0, 2.0, 4, 9);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a[0], a[1]);  // senders get independent streams
  std::size_t total = 0;
  for (const auto& s : a) total += s.size();
  EXPECT_NEAR(static_cast<double>(total), 8000.0, 5 * std::sqrt(8000.0));
}

TEST(ZipfKeys, SameSeedSameDrawsAndSkewTowardLowKeys) {
  const ZipfKeys zipf(96, 1.0);
  const auto a = zipf.draw(20000, 5);
  EXPECT_EQ(a, zipf.draw(20000, 5));
  std::vector<std::size_t> counts(96, 0);
  for (const auto k : a) {
    ASSERT_LT(k, 96u);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(DeriveSeed, DistinctStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(3, 4), derive_seed(3, 4));
}

}  // namespace
}  // namespace perfbench
