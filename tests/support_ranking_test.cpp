#include "support/ranking.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace {

using dlb::support::format_order;
using dlb::support::kendall_tau;
using dlb::support::positions_matched;
using dlb::support::rank_by_cost;

TEST(KendallTau, IdenticalOrdersGiveOne) {
  std::vector<int> a{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(kendall_tau(a, a), 1.0);
}

TEST(KendallTau, ReversedOrdersGiveMinusOne) {
  std::vector<int> a{0, 1, 2, 3};
  std::vector<int> b{3, 2, 1, 0};
  EXPECT_DOUBLE_EQ(kendall_tau(a, b), -1.0);
}

TEST(KendallTau, SingleSwapOfFourItems) {
  std::vector<int> a{0, 1, 2, 3};
  std::vector<int> b{1, 0, 2, 3};
  // 6 pairs, one discordant -> (5 - 1) / 6
  EXPECT_NEAR(kendall_tau(a, b), 4.0 / 6.0, 1e-12);
}

TEST(KendallTau, ThrowsOnDifferentItemSets) {
  std::vector<int> a{0, 1, 2};
  std::vector<int> b{0, 1, 5};
  EXPECT_THROW((void)kendall_tau(a, b), std::invalid_argument);
}

TEST(KendallTau, ThrowsOnDuplicateIds) {
  std::vector<int> a{0, 1, 1};
  std::vector<int> b{0, 1, 2};
  EXPECT_THROW((void)kendall_tau(b, a), std::invalid_argument);
}

TEST(PositionsMatched, CountsAgreements) {
  std::vector<int> a{0, 1, 2, 3};
  std::vector<int> b{0, 2, 1, 3};
  EXPECT_EQ(positions_matched(a, b), 2);
}

TEST(RankByCost, SortsAscending) {
  std::vector<double> costs{3.0, 1.0, 2.0};
  const auto order = rank_by_cost(costs);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(RankByCost, TiesBreakByIndex) {
  std::vector<double> costs{2.0, 1.0, 1.0};
  const auto order = rank_by_cost(costs);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(FormatOrder, JoinsLabels) {
  std::vector<int> order{1, 0};
  std::vector<std::string> labels{"GC", "GD"};
  EXPECT_EQ(format_order(order, labels), "GD GC");
}

}  // namespace
