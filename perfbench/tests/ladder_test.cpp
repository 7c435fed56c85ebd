#include "harness/ladder.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(GeometricLadder, FixedRungsEndingAtHi) {
  const std::vector<double> ladder = geometric_ladder(1000.0, 2000.0, 1.1);
  ASSERT_FALSE(ladder.empty());
  EXPECT_DOUBLE_EQ(ladder.front(), 1000.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 2000.0);
  for (std::size_t i = 1; i + 1 < ladder.size(); ++i) {
    EXPECT_NEAR(ladder[i] / ladder[i - 1], 1.1, 1e-12);
  }
  EXPECT_EQ(ladder, geometric_ladder(1000.0, 2000.0, 1.1));
}

TEST(GeometricLadder, RejectsBadShapes) {
  EXPECT_TRUE(geometric_ladder(0.0, 10.0, 1.1).empty());
  EXPECT_TRUE(geometric_ladder(10.0, 5.0, 1.1).empty());
  EXPECT_TRUE(geometric_ladder(1.0, 5.0, 1.0).empty());
}

TEST(SearchLadder, FindsHighestPassingRungForEveryCrossing) {
  const std::vector<double> ladder = geometric_ladder(100.0, 10000.0, 1.05);
  for (std::size_t crossing = 0; crossing <= ladder.size(); ++crossing) {
    // Rungs below `crossing` pass.
    const LadderResult r = search_ladder(ladder, [&](double rate) {
      return rate < (crossing < ladder.size() ? ladder[crossing] : 1e18);
    });
    if (crossing == 0) {
      EXPECT_FALSE(r.rung.has_value());
      EXPECT_EQ(r.rate, 0.0);
    } else {
      ASSERT_TRUE(r.rung.has_value());
      EXPECT_EQ(*r.rung, crossing - 1);
      EXPECT_DOUBLE_EQ(r.rate, ladder[crossing - 1]);
    }
    // Binary search: about log2(rungs) rungs, a failing one probed twice.
    EXPECT_LE(r.probes.size(), 16u);
    for (const LadderProbe& p : r.probes) {
      EXPECT_EQ(p.pass, p.rung < crossing);
      EXPECT_DOUBLE_EQ(p.rate, ladder[p.rung]);
    }
  }
}

TEST(SearchLadder, SpuriousEarlyFailureIsConfirmedAway) {
  const std::vector<double> ladder = geometric_ladder(100.0, 10000.0, 1.05);
  const std::size_t crossing = 80;  // rungs below pass
  bool stalled = false;
  const LadderResult r = search_ladder(ladder, [&](double rate) {
    // The first probe meets a stall and fails although its rung passes.
    if (!stalled) {
      stalled = true;
      return false;
    }
    return rate < ladder[crossing];
  });
  ASSERT_TRUE(r.rung.has_value());
  EXPECT_EQ(*r.rung, crossing - 1);
  ASSERT_GE(r.probes.size(), 2u);
  EXPECT_FALSE(r.probes[0].pass);
  EXPECT_TRUE(r.probes[1].pass);
  EXPECT_EQ(r.probes[0].rung, r.probes[1].rung);
}

TEST(SearchLadder, ConfirmedFailureDiscardsTheRungsAbove) {
  const std::vector<double> ladder = geometric_ladder(100.0, 10000.0, 1.05);
  std::vector<double> probed;
  const LadderResult r = search_ladder(ladder, [&](double rate) {
    probed.push_back(rate);
    return false;
  });
  EXPECT_FALSE(r.rung.has_value());
  // Every failing rung is probed exactly twice, back to back.
  ASSERT_EQ(probed.size() % 2, 0u);
  for (std::size_t i = 0; i < probed.size(); i += 2) {
    EXPECT_DOUBLE_EQ(probed[i], probed[i + 1]);
  }
  EXPECT_DOUBLE_EQ(probed.back(), ladder.front());
}

TEST(SearchLadder, StaircaseSettlesOnTheHighestPassingRung) {
  const std::vector<double> ladder = geometric_ladder(100.0, 10000.0, 1.05);
  for (std::size_t crossing = 1; crossing <= ladder.size(); ++crossing) {
    std::size_t calls = 0;
    const LadderResult r = search_ladder(
        ladder,
        [&](double rate) {
          ++calls;
          return rate < (crossing < ladder.size() ? ladder[crossing] : 1e18);
        },
        9);
    ASSERT_TRUE(r.rung.has_value());
    EXPECT_EQ(*r.rung, crossing - 1);
    EXPECT_DOUBLE_EQ(r.rate, ladder[crossing - 1]);
    EXPECT_EQ(r.probes.size(), calls);
    // The last nine probes are the staircase, one rung apart.
    ASSERT_GE(r.probes.size(), 9u);
    for (std::size_t i = r.probes.size() - 8; i < r.probes.size(); ++i) {
      const std::size_t a = r.probes[i - 1].rung;
      const std::size_t b = r.probes[i].rung;
      EXPECT_LE(a > b ? a - b : b - a, 1u);
    }
  }
}

TEST(SearchLadder, StaircaseMedianIgnoresOneSpuriousFailure) {
  const std::vector<double> ladder = geometric_ladder(100.0, 10000.0, 1.05);
  const std::size_t crossing = 40;
  std::size_t calls = 0;
  std::size_t search_probes = 0;
  (void)search_ladder(ladder, [&](double rate) {
    ++search_probes;
    return rate < ladder[crossing];
  });
  const LadderResult r = search_ladder(
      ladder,
      [&](double rate) {
        // The staircase's first trial meets a stall and fails although its
        // rung passes.
        if (++calls == search_probes + 1) return false;
        return rate < ladder[crossing];
      },
      9);
  ASSERT_TRUE(r.rung.has_value());
  EXPECT_FALSE(r.probes[search_probes].pass);
  EXPECT_EQ(*r.rung, crossing - 1);
}

TEST(SearchLadder, StaircaseSkippedWhenNoRungPasses) {
  const std::vector<double> ladder = geometric_ladder(100.0, 10000.0, 1.05);
  const LadderResult r = search_ladder(
      ladder, [](double) { return false; }, 9);
  EXPECT_FALSE(r.rung.has_value());
  for (const LadderProbe& p : r.probes) EXPECT_FALSE(p.pass);
}

TEST(SearchLadder, EmptyLadderProbesNothing) {
  int calls = 0;
  const LadderResult r = search_ladder({}, [&](double) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(r.rung.has_value());
}

}  // namespace
}  // namespace perfbench
