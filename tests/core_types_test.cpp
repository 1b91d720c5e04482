#include "core/types.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using dlb::core::DlbConfig;
using dlb::core::ranked_id;
using dlb::core::ranked_strategy;
using dlb::core::Strategy;
using dlb::core::strategy_label;
using dlb::core::strategy_name;

TEST(StrategyNames, AllDistinct) {
  EXPECT_STREQ(strategy_name(Strategy::kNoDlb), "NoDLB");
  EXPECT_STREQ(strategy_name(Strategy::kGCDLB), "GCDLB");
  EXPECT_STREQ(strategy_name(Strategy::kGDDLB), "GDDLB");
  EXPECT_STREQ(strategy_name(Strategy::kLCDLB), "LCDLB");
  EXPECT_STREQ(strategy_name(Strategy::kLDDLB), "LDDLB");
  EXPECT_STREQ(strategy_name(Strategy::kAuto), "Auto");
}

TEST(StrategyLabels, MatchPaperTables) {
  EXPECT_STREQ(strategy_label(Strategy::kGCDLB), "GC");
  EXPECT_STREQ(strategy_label(Strategy::kGDDLB), "GD");
  EXPECT_STREQ(strategy_label(Strategy::kLCDLB), "LC");
  EXPECT_STREQ(strategy_label(Strategy::kLDDLB), "LD");
}

TEST(RankedStrategies, RoundTrip) {
  for (int id = 0; id < dlb::core::kRankedStrategyCount; ++id) {
    EXPECT_EQ(ranked_id(ranked_strategy(id)), id);
  }
  EXPECT_THROW((void)ranked_strategy(-1), std::invalid_argument);
  EXPECT_THROW((void)ranked_strategy(4), std::invalid_argument);
  EXPECT_THROW((void)ranked_id(Strategy::kNoDlb), std::invalid_argument);
  EXPECT_THROW((void)ranked_id(Strategy::kAuto), std::invalid_argument);
}

TEST(DlbConfig, DefaultsAreThePapers) {
  const DlbConfig c;
  EXPECT_DOUBLE_EQ(c.profitability_margin, 0.10);  // §3.4
  EXPECT_EQ(c.group_size, 0);                      // -> two K-block groups
  EXPECT_FALSE(c.record_trace);
}

TEST(DlbConfig, EffectiveGroupSize) {
  DlbConfig c;
  c.strategy = dlb::core::Strategy::kLDDLB;
  EXPECT_EQ(c.effective_group_size(16), 8);  // two groups
  EXPECT_EQ(c.effective_group_size(4), 2);
  EXPECT_EQ(c.effective_group_size(3), 2);  // ceil(3/2)
  c.group_size = 4;
  EXPECT_EQ(c.effective_group_size(16), 4);

  c.strategy = dlb::core::Strategy::kGDDLB;
  EXPECT_EQ(c.effective_group_size(16), 16);  // global: K = P regardless
}

TEST(DlbConfig, Validation) {
  DlbConfig c;
  EXPECT_NO_THROW(c.validate(4));
  EXPECT_THROW(c.validate(0), std::invalid_argument);

  DlbConfig bad = c;
  bad.group_size = 5;
  EXPECT_THROW(bad.validate(4), std::invalid_argument);
  bad = c;
  bad.profitability_margin = -0.1;
  EXPECT_THROW(bad.validate(4), std::invalid_argument);
  bad = c;
  bad.move_threshold_fraction = 1.0;
  EXPECT_THROW(bad.validate(4), std::invalid_argument);
}

}  // namespace
