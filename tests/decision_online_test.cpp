// OnlineSelector hysteresis properties: a challenger must beat the incumbent
// by more than the margin at k consecutive decisions, equal costs can never
// make the selector flap, and the switch sequence is a pure function of the
// cost stream (identical on any thread).
#include "decision/online.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace {

using dlb::core::ranked_strategy;
using dlb::core::Strategy;
using dlb::decision::HysteresisConfig;
using dlb::decision::OnlineSelector;

HysteresisConfig config(double margin, int k) {
  HysteresisConfig c;
  c.margin = margin;
  c.k = k;
  return c;
}

TEST(OnlineSelector, FirstDecisionCommitsCheapestWithoutASwitch) {
  OnlineSelector s(config(0.05, 3));
  const std::array<double, 4> costs{3.0, 1.0, 2.0, 4.0};
  EXPECT_EQ(s.decide(costs), ranked_strategy(1));
  EXPECT_EQ(s.current(), ranked_strategy(1));
  EXPECT_EQ(s.switches(), 0u);
}

TEST(OnlineSelector, FirstDecisionTieBreaksToLowestRankedId) {
  OnlineSelector s(config(0.05, 3));
  const std::array<double, 4> costs{2.0, 2.0, 2.0, 2.0};
  EXPECT_EQ(s.decide(costs), ranked_strategy(0));
}

TEST(OnlineSelector, SwitchRequiresKConsecutiveWins) {
  OnlineSelector s(config(0.05, 3));
  const std::array<double, 4> incumbent_best{1.0, 2.0, 3.0, 4.0};
  ASSERT_EQ(s.decide(incumbent_best), ranked_strategy(0));

  // Strategy 1 wins by 50% — well over the margin — but only twice in a row.
  const std::array<double, 4> challenger_wins{2.0, 1.0, 3.0, 4.0};
  EXPECT_EQ(s.decide(challenger_wins), ranked_strategy(0));
  EXPECT_EQ(s.decide(challenger_wins), ranked_strategy(0));
  EXPECT_EQ(s.decide(incumbent_best), ranked_strategy(0));  // streak broken
  EXPECT_EQ(s.decide(challenger_wins), ranked_strategy(0));
  EXPECT_EQ(s.decide(challenger_wins), ranked_strategy(0));
  // Third consecutive win: the switch happens.
  EXPECT_EQ(s.decide(challenger_wins), ranked_strategy(1));
  EXPECT_EQ(s.switches(), 1u);
}

TEST(OnlineSelector, WinEqualToMarginNeverSwitches) {
  // win == margin exactly, in representable doubles: cost 1.0 -> 0.5 is a
  // win of exactly 0.5.  The rule is strict, so the streak never starts.
  OnlineSelector s(config(0.5, 1));
  const std::array<double, 4> first{1.0, 2.0, 3.0, 4.0};
  ASSERT_EQ(s.decide(first), ranked_strategy(0));
  const std::array<double, 4> at_margin{1.0, 0.5, 3.0, 4.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s.decide(at_margin), ranked_strategy(0));
  EXPECT_EQ(s.switches(), 0u);
  // One representable notch past the margin and the switch fires at once.
  const std::array<double, 4> past_margin{1.0, 0.25, 3.0, 4.0};
  EXPECT_EQ(s.decide(past_margin), ranked_strategy(1));
  EXPECT_EQ(s.switches(), 1u);
}

TEST(OnlineSelector, EqualCostsNeverFlapEvenAtZeroMargin) {
  OnlineSelector s(config(0.0, 1));
  const std::array<double, 4> equal{2.0, 2.0, 2.0, 2.0};
  ASSERT_EQ(s.decide(equal), ranked_strategy(0));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.decide(equal), ranked_strategy(0));
  EXPECT_EQ(s.switches(), 0u);
}

TEST(OnlineSelector, SwitchBackNeedsItsOwnStreak) {
  OnlineSelector s(config(0.05, 2));
  const std::array<double, 4> a_best{1.0, 2.0, 3.0, 4.0};
  const std::array<double, 4> b_best{2.0, 1.0, 3.0, 4.0};
  ASSERT_EQ(s.decide(a_best), ranked_strategy(0));
  EXPECT_EQ(s.decide(b_best), ranked_strategy(0));
  EXPECT_EQ(s.decide(b_best), ranked_strategy(1));  // switched after k=2
  // Back to a: again two consecutive wins required.
  EXPECT_EQ(s.decide(a_best), ranked_strategy(1));
  EXPECT_EQ(s.decide(a_best), ranked_strategy(0));
  EXPECT_EQ(s.switches(), 2u);
}

TEST(OnlineSelector, ValidatesConfigAndCosts) {
  EXPECT_THROW(OnlineSelector(config(-0.1, 3)), std::invalid_argument);
  EXPECT_THROW(OnlineSelector(config(0.05, 0)), std::invalid_argument);

  OnlineSelector s(config(0.05, 3));
  const std::array<double, 3> short_costs{1.0, 2.0, 3.0};
  EXPECT_THROW((void)s.decide(short_costs), std::invalid_argument);
  const std::array<double, 4> nonpositive{1.0, 0.0, 2.0, 3.0};
  EXPECT_THROW((void)s.decide(nonpositive), std::invalid_argument);
}

// Replaying one pseudo-random cost stream must reproduce the identical
// decision sequence — here concurrently from several threads, which is how
// parallel sweep cells rely on the selector being pure per instance.
TEST(OnlineSelectorProperty, DecisionSequenceIsDeterministicAcrossThreads) {
  constexpr int kDecisions = 2000;
  std::vector<std::array<double, 4>> stream;
  dlb::support::Rng rng(20260808);
  for (int i = 0; i < kDecisions; ++i) {
    std::array<double, 4> costs{};
    for (auto& c : costs) c = 0.5 + rng.uniform01();
    stream.push_back(costs);
  }

  const auto replay = [&stream] {
    std::vector<Strategy> decisions;
    decisions.reserve(stream.size());
    OnlineSelector s(config(0.02, 2));
    for (const auto& costs : stream) decisions.push_back(s.decide(costs));
    return decisions;
  };

  const std::vector<Strategy> reference = replay();
  std::vector<std::vector<Strategy>> results(4);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (auto& out : results) {
    threads.emplace_back([&replay, &out] { out = replay(); });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

// Switches must be rare relative to decisions under a noisy but stationary
// cost stream — the hysteresis is what separates the online selector from a
// per-decision argmin, which would flap on every noise crossing.
TEST(OnlineSelectorProperty, HysteresisSuppressesNoiseFlapping) {
  dlb::support::Rng rng(7);
  OnlineSelector hysteretic(config(0.10, 4));
  std::uint64_t argmin_switches = 0;
  int argmin_current = -1;
  for (int i = 0; i < 5000; ++i) {
    std::array<double, 4> costs{};
    for (auto& c : costs) c = 1.0 + 0.1 * rng.uniform01();  // near-tied noise
    (void)hysteretic.decide(costs);
    int best = 0;
    for (int j = 1; j < 4; ++j) {
      if (costs[static_cast<std::size_t>(j)] < costs[static_cast<std::size_t>(best)]) best = j;
    }
    if (best != argmin_current) {
      if (argmin_current >= 0) ++argmin_switches;
      argmin_current = best;
    }
  }
  EXPECT_LT(hysteretic.switches(), argmin_switches / 10);
}

}  // namespace
