#include "core/groups.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace {

using dlb::core::DlbConfig;
using dlb::core::form_groups;
using dlb::core::Strategy;

void expect_partition(const std::vector<std::vector<int>>& groups, int procs) {
  std::set<int> seen;
  for (const auto& g : groups) {
    EXPECT_FALSE(g.empty());
    for (std::size_t i = 1; i < g.size(); ++i) EXPECT_LT(g[i - 1], g[i]);  // sorted
    for (const int p : g) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, procs);
      EXPECT_TRUE(seen.insert(p).second) << "duplicate member " << p;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(procs));
}

TEST(FormGroups, BlockModeMatchesKBlock) {
  DlbConfig config;
  config.strategy = Strategy::kLDDLB;
  config.group_size = 4;
  const auto groups = form_groups(8, config);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(groups[1], (std::vector<int>{4, 5, 6, 7}));
}

// form_groups(procs, config) reads the strategy and K from the config: K = 2
// gives four blocks, the default K is P/2 (two groups), and the global
// strategies form one group of P.
TEST(FormGroups, ConfigConvenienceUsesMode) {
  DlbConfig config;
  config.strategy = Strategy::kLDDLB;
  config.group_size = 2;
  const auto groups = form_groups(8, config);
  expect_partition(groups, 8);
  EXPECT_EQ(groups.size(), 4u);
  config.group_size = 0;
  EXPECT_EQ(form_groups(8, config).size(), 2u);
  config.strategy = Strategy::kGDDLB;
  EXPECT_EQ(form_groups(8, config), (std::vector<std::vector<int>>{{0, 1, 2, 3, 4, 5, 6, 7}}));
}

TEST(FormGroups, Rejections) {
  DlbConfig config;
  config.strategy = Strategy::kLDDLB;
  EXPECT_THROW((void)form_groups(0, config), std::invalid_argument);
  config.group_size = 5;
  EXPECT_THROW((void)form_groups(4, config), std::invalid_argument);
}

}  // namespace
