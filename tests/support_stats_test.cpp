#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"

namespace {

using dlb::support::summarize;

TEST(Summary, BasicMoments) {
  std::vector<double> v{1, 2, 3, 4, 5};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stdev, 1.5811388, 1e-6);
  EXPECT_EQ(s.count, 5u);
}

TEST(Summary, EvenCountMedianAverages) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(summarize(v).median, 2.5);
}

TEST(Summary, SingleElement) {
  std::vector<double> v{7.5};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stdev, 0.0);
}

TEST(Summary, ThrowsOnEmpty) {
  std::vector<double> v;
  EXPECT_THROW((void)summarize(v), std::invalid_argument);
}

TEST(Summary, UnsortedInputHandled) {
  std::vector<double> v{5, 1, 3};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(PercentileNearestRank, ExactRankSemantics) {
  using dlb::support::percentiles_nearest_rank;
  // Nearest-rank: rank = ceil(q * n), 1-based into the sorted order.
  std::vector<double> v{40, 10, 30, 20};  // sorted: 10 20 30 40
  const std::vector<double> q{0.001, 0.50, 0.51, 0.99, 1.0};
  // rank 1 (the min), ceil(2.0) = 2, ceil(2.04) = 3, rank 4 (the max) twice.
  EXPECT_EQ(percentiles_nearest_rank(v, q), (std::vector<double>{10, 20, 30, 40, 40}));
  std::vector<double> w{40, 10, 30, 20};
  EXPECT_EQ(percentiles_nearest_rank(w, std::vector<double>{0.51}), std::vector<double>{30});
}

TEST(PercentileNearestRank, SingleSampleAndDuplicates) {
  using dlb::support::percentiles_nearest_rank;
  std::vector<double> one{7.5};
  EXPECT_EQ(percentiles_nearest_rank(one, std::vector<double>{0.5, 0.999}),
            (std::vector<double>{7.5, 7.5}));
  std::vector<double> dup{2.0, 2.0, 2.0, 9.0};
  EXPECT_EQ(percentiles_nearest_rank(dup, std::vector<double>{0.5, 0.5, 0.99}),
            (std::vector<double>{2.0, 2.0, 9.0}));
  std::vector<double> none{1.0, 2.0};
  EXPECT_TRUE(percentiles_nearest_rank(none, std::vector<double>{}).empty());
}

TEST(PercentileNearestRank, ValidatesInput) {
  using dlb::support::percentiles_nearest_rank;
  std::vector<double> empty;
  EXPECT_THROW((void)percentiles_nearest_rank(empty, std::vector<double>{0.5}),
               std::invalid_argument);
  std::vector<double> v{1.0, 2.0};
  EXPECT_THROW((void)percentiles_nearest_rank(v, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)percentiles_nearest_rank(v, std::vector<double>{1.5}),
               std::invalid_argument);
  EXPECT_THROW((void)percentiles_nearest_rank(v, std::vector<double>{0.9, 0.5}),
               std::invalid_argument);
}

TEST(PercentileNearestRank, MatchesAFullSort) {
  // Random samples (with ties) and random ascending quantile lists: every
  // percentile equals the sorted sample at rank ceil(q * n).
  using dlb::support::percentiles_nearest_rank;
  dlb::support::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<double> samples(n);
    for (auto& x : samples) x = static_cast<double>(rng.uniform_int(0, 50)) + 0.25;
    std::vector<double> q(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (auto& x : q) x = rng.uniform_int(0, 3) == 0 ? 1.0 : 1.0 - rng.uniform01();
    std::sort(q.begin(), q.end());

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> expected;
    for (const double x : q) {
      const auto rank = static_cast<std::size_t>(std::ceil(x * static_cast<double>(n)));
      expected.push_back(sorted[std::clamp<std::size_t>(rank, 1, n) - 1]);
    }
    EXPECT_EQ(percentiles_nearest_rank(samples, q), expected) << "trial " << trial;
  }
}

}  // namespace
