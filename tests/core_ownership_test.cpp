#include "core/ownership.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "apps/synthetic.hpp"

namespace {

using dlb::core::IterationSet;
using dlb::core::IterRange;

TEST(IterRange, Basics) {
  const IterRange r{3, 7};
  EXPECT_EQ(r.size(), 4);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((IterRange{5, 5}).empty());
}

TEST(BlockPartition, CoversAllIterationsExactlyOnce) {
  for (const std::int64_t iterations : {0L, 1L, 7L, 100L, 101L}) {
    for (const int procs : {1, 3, 4, 16}) {
      std::vector<bool> covered(static_cast<std::size_t>(iterations), false);
      for (int who = 0; who < procs; ++who) {
        const auto set = IterationSet::block_partition(iterations, procs, who);
        for (const auto& r : set.ranges()) {
          for (std::int64_t i = r.lo; i < r.hi; ++i) {
            EXPECT_FALSE(covered[static_cast<std::size_t>(i)]);
            covered[static_cast<std::size_t>(i)] = true;
          }
        }
      }
      for (const bool c : covered) EXPECT_TRUE(c);
    }
  }
}

TEST(BlockPartition, SizesDifferByAtMostOne) {
  std::int64_t min_size = INT64_MAX;
  std::int64_t max_size = 0;
  for (int who = 0; who < 7; ++who) {
    const auto size = IterationSet::block_partition(100, 7, who).size();
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1);
}

TEST(BlockPartition, RejectsBadArgs) {
  EXPECT_THROW((void)IterationSet::block_partition(-1, 2, 0), std::invalid_argument);
  EXPECT_THROW((void)IterationSet::block_partition(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)IterationSet::block_partition(10, 2, 2), std::invalid_argument);
}

TEST(IterationSet, PopFrontWalksAscending) {
  IterationSet s(IterRange{10, 14});
  EXPECT_EQ(s.pop_front(), 10);
  EXPECT_EQ(s.pop_front(), 11);
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s.pop_front(), 12);
  EXPECT_EQ(s.pop_front(), 13);
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.pop_front(), std::logic_error);
}

TEST(IterationSet, DropFrontRemovesAnExecutedPrefix) {
  IterationSet s(IterRange{0, 4});
  s.add(IterRange{10, 14});
  s.add(IterRange{20, 24});
  s.drop_front(0);
  EXPECT_EQ(s.size(), 12);
  s.drop_front(2);
  EXPECT_EQ(s.ranges(), (std::vector<IterRange>{{2, 4}, {10, 14}, {20, 24}}));
  s.drop_front(3);  // across a range boundary
  EXPECT_EQ(s.ranges(), (std::vector<IterRange>{{11, 14}, {20, 24}}));
  s.drop_front(3);  // exactly the first range
  EXPECT_EQ(s.ranges(), (std::vector<IterRange>{{20, 24}}));
  EXPECT_THROW(s.drop_front(5), std::invalid_argument);
  EXPECT_THROW(s.drop_front(-1), std::invalid_argument);
  s.drop_front(4);
  EXPECT_TRUE(s.empty());
}

TEST(IterationSet, TakeBackRemovesHighest) {
  IterationSet s(IterRange{0, 10});
  const auto taken = s.take_back(3);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0], (IterRange{7, 10}));
  EXPECT_EQ(s.size(), 7);
}

TEST(IterationSet, TakeBackSpansRanges) {
  IterationSet s(IterRange{0, 4});
  s.add(IterRange{8, 10});
  const auto taken = s.take_back(3);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0], (IterRange{3, 4}));
  EXPECT_EQ(taken[1], (IterRange{8, 10}));
  EXPECT_EQ(s.size(), 3);
}

TEST(IterationSet, TakeBackWholeSet) {
  IterationSet s(IterRange{0, 5});
  const auto taken = s.take_back(5);
  EXPECT_TRUE(s.empty());
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0], (IterRange{0, 5}));
}

TEST(IterationSet, TakeBackRejectsOverdraw) {
  IterationSet s(IterRange{0, 5});
  EXPECT_THROW((void)s.take_back(6), std::invalid_argument);
  EXPECT_THROW((void)s.take_back(-1), std::invalid_argument);
}

TEST(IterationSet, AddCoalescesAdjacent) {
  IterationSet s(IterRange{0, 5});
  s.add(IterRange{5, 8});
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (IterRange{0, 8}));
}

TEST(IterationSet, AddKeepsDisjointSorted) {
  IterationSet s(IterRange{10, 12});
  s.add(IterRange{0, 2});
  s.add(IterRange{5, 6});
  ASSERT_EQ(s.ranges().size(), 3u);
  EXPECT_EQ(s.ranges()[0].lo, 0);
  EXPECT_EQ(s.ranges()[1].lo, 5);
  EXPECT_EQ(s.ranges()[2].lo, 10);
}

TEST(IterationSet, AddRejectsOverlap) {
  IterationSet s(IterRange{0, 5});
  EXPECT_THROW(s.add(IterRange{4, 6}), std::invalid_argument);
  EXPECT_THROW(s.add(IterRange{0, 1}), std::invalid_argument);
}

TEST(IterationSet, AddEmptyIsNoop) {
  IterationSet s(IterRange{0, 5});
  s.add(IterRange{7, 7});
  EXPECT_EQ(s.size(), 5);
}

TEST(IterationSet, RoundTripTransferPreservesPartition) {
  // Simulate a transfer: take from one set, add to another; union invariant.
  IterationSet a(IterRange{0, 50});
  IterationSet b(IterRange{50, 100});
  const auto shipped = a.take_back(20);
  for (const auto& r : shipped) b.add(r);
  EXPECT_EQ(a.size() + b.size(), 100);
  // b should now own [30, 100) coalesced.
  ASSERT_EQ(b.ranges().size(), 1u);
  EXPECT_EQ(b.ranges()[0], (IterRange{30, 100}));
}

TEST(IterationSet, OpsSumsWork) {
  const auto app = dlb::apps::make_triangular(10, 100.0, 10.0, 0.0);
  const auto& loop = app.loops[0];
  std::vector<double> work;
  for (std::int64_t j = 0; j < loop.iterations; ++j) work.push_back(loop.ops_of(j));
  IterationSet s(IterRange{0, 10});
  EXPECT_DOUBLE_EQ(s.ops(work), loop.total_ops());
  (void)s.take_back(5);
  EXPECT_DOUBLE_EQ(s.ops(work), loop.ops_in_range(0, 5));
  EXPECT_THROW((void)s.ops(std::span<const double>(work).first(4)), std::out_of_range);
}

}  // namespace
