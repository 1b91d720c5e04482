#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/coverage.hpp"

namespace {

using dlb::fault::CoverageChecker;
using dlb::fault::FaultKind;
using dlb::fault::FaultPlan;

TEST(FaultPlan, DefaultIsDisarmed) {
  FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  plan.validate(4);  // a disarmed plan is always valid
}

TEST(FaultPlan, PresetsRoundTrip) {
  for (const char* name :
       {"none", "crash-half", "crash-coord", "crash-two", "revoke-half", "loss10", "crash-loss"}) {
    const auto plan = FaultPlan::preset(name);
    EXPECT_EQ(plan.name, name);
    plan.validate(8);
  }
  EXPECT_FALSE(FaultPlan::preset("none").armed());
  EXPECT_TRUE(FaultPlan::preset("crash-half").armed());
  EXPECT_TRUE(FaultPlan::preset("loss10").armed());
  EXPECT_THROW((void)FaultPlan::preset("nope"), std::invalid_argument);
}

TEST(FaultPlan, ValidateRejectsCrashingEveryone) {
  FaultPlan plan;
  plan.events.push_back({FaultKind::kCrash, 0, 0.5, 0.0});
  plan.events.push_back({FaultKind::kCrash, 1, 0.5, 0.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
  plan.validate(3);  // one survivor left
}

TEST(FaultPlan, ValidateRejectsBadSpecs) {
  {
    FaultPlan plan;
    plan.events.push_back({FaultKind::kCrash, 7, 0.5, 0.0});
    EXPECT_THROW(plan.validate(4), std::invalid_argument);  // proc out of range
  }
  {
    FaultPlan plan;
    plan.events.push_back({FaultKind::kCrash, 1, 0.0, 0.0});
    EXPECT_THROW(plan.validate(4), std::invalid_argument);  // progress outside (0, 1]
    plan.events.back().at_progress = 1.5;
    EXPECT_THROW(plan.validate(4), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.message_loss_rate = 0.95;  // would make termination unlikely
    EXPECT_THROW(plan.validate(4), std::invalid_argument);
  }
}

TEST(Coverage, RecordsExactlyOnce) {
  CoverageChecker cov;
  cov.reset(10);
  EXPECT_EQ(cov.total(), 10);
  EXPECT_EQ(cov.covered(), 0);
  cov.record(3, 1);
  EXPECT_EQ(cov.owner(3), 1);
  EXPECT_EQ(cov.owner(4), -1);
  EXPECT_THROW(cov.record(3, 2), std::logic_error);
  EXPECT_THROW(cov.expect_complete(), std::logic_error);
  for (std::int64_t i = 0; i < 10; ++i) {
    if (i != 3) cov.record(i, 0);
  }
  EXPECT_TRUE(cov.complete());
  cov.expect_complete();
}

TEST(Coverage, WipeReturnsCoalescedRangesAndReopensThem) {
  CoverageChecker cov;
  cov.reset(10);
  for (const std::int64_t i : {0, 1, 2, 5, 6, 9}) cov.record(i, 1);
  cov.record(3, 0);
  const auto ranges = cov.wipe(1);
  EXPECT_EQ(ranges,
            (std::vector<std::pair<std::int64_t, std::int64_t>>{{0, 3}, {5, 7}, {9, 10}}));
  EXPECT_EQ(cov.covered(), 1);  // proc 0's index survives
  EXPECT_EQ(cov.owner(0), -1);
  cov.record(0, 2);  // re-execution by a survivor is legal again
  EXPECT_EQ(cov.owner(0), 2);
  EXPECT_TRUE(cov.wipe(7).empty());  // wiping a proc that covered nothing
}

}  // namespace
