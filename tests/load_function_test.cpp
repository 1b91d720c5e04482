#include "load/load_function.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/time.hpp"
#include "support/rng.hpp"

namespace {

using dlb::load::LoadFunction;
using dlb::load::LoadParams;
using dlb::sim::from_seconds;
using dlb::support::Rng;

LoadParams second_blocks(int max_load = 5) {
  return LoadParams{max_load, from_seconds(1.0)};
}

TEST(LoadFunction, LevelsWithinBounds) {
  LoadFunction f(second_blocks(), Rng(1));
  for (int k = 0; k < 1000; ++k) {
    const int level = f.level_of_block(k);
    EXPECT_GE(level, 0);
    EXPECT_LE(level, 5);
  }
}

TEST(LoadFunction, LevelStableWithinBlock) {
  LoadFunction f(second_blocks(), Rng(2));
  const int at_start = f.level_at(from_seconds(3.0));
  const int mid = f.level_at(from_seconds(3.5));
  const int near_end = f.level_at(from_seconds(4.0) - 1);
  EXPECT_EQ(at_start, mid);
  EXPECT_EQ(mid, near_end);
}

TEST(LoadFunction, SameSeedSameTrace) {
  LoadFunction a(second_blocks(), Rng(7));
  LoadFunction b(second_blocks(), Rng(7));
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a.level_of_block(k), b.level_of_block(k));
}

TEST(LoadFunction, QueriesAreCachedNotRedrawn) {
  LoadFunction f(second_blocks(), Rng(3));
  const int first = f.level_of_block(10);
  const int again = f.level_of_block(10);
  EXPECT_EQ(first, again);
}

TEST(LoadFunction, SegmentBoundaries) {
  LoadFunction f(second_blocks(), Rng(4));
  const auto seg = f.segment_at(from_seconds(2.5));
  EXPECT_EQ(seg.begin, from_seconds(2.0));
  EXPECT_EQ(seg.end, from_seconds(3.0));
  EXPECT_EQ(seg.level, f.level_at(from_seconds(2.5)));
}

TEST(LoadFunction, SlowdownIsLevelPlusOne) {
  LoadFunction f(second_blocks(), Rng(5));
  for (int k = 0; k < 20; ++k) {
    const auto t = from_seconds(0.5 + k);
    EXPECT_DOUBLE_EQ(f.slowdown_at(t), 1.0 + f.level_at(t));
  }
}

TEST(LoadFunction, RejectsBadParameters) {
  EXPECT_THROW(LoadFunction(LoadParams{-1, from_seconds(1.0)}, Rng(0)), std::invalid_argument);
  EXPECT_THROW(LoadFunction(LoadParams{5, 0}, Rng(0)), std::invalid_argument);
}

TEST(LoadFunction, RejectsNegativeTime) {
  LoadFunction f(second_blocks(), Rng(1));
  EXPECT_THROW((void)f.level_at(-1), std::invalid_argument);
  EXPECT_THROW((void)f.level_of_block(-1), std::invalid_argument);
}

TEST(LoadFunction, ZeroMaxLoadAlwaysIdle) {
  LoadFunction f(LoadParams{0, from_seconds(1.0)}, Rng(9));
  for (int k = 0; k < 100; ++k) EXPECT_EQ(f.level_of_block(k), 0);
}

TEST(LoadFunction, LongRunDistributionRoughlyUniform) {
  LoadFunction f(second_blocks(), Rng(100));
  std::vector<int> counts(6, 0);
  constexpr int kBlocks = 60000;
  for (int k = 0; k < kBlocks; ++k) ++counts[static_cast<std::size_t>(f.level_of_block(k))];
  for (const int c : counts) EXPECT_NEAR(static_cast<double>(c), kBlocks / 6.0, kBlocks * 0.01);
}

}  // namespace
