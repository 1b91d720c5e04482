#include <gtest/gtest.h>

#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"

namespace {

using dlb::apps::make_mxm;
using dlb::apps::make_sawtooth;
using dlb::apps::make_triangular;
using dlb::apps::make_trfd;
using dlb::apps::make_uniform;
using dlb::apps::trfd_array_dim;
using dlb::apps::trfd_loop2_unfolded_work;

TEST(Mxm, DescriptorMatchesPaperParameters) {
  const auto app = make_mxm({400, 800, 400});
  ASSERT_EQ(app.loops.size(), 1u);
  const auto& loop = app.loops[0];
  EXPECT_EQ(loop.iterations, 400);
  EXPECT_DOUBLE_EQ(loop.ops_of(0), 800.0 * 400.0);  // W = C * R2
  EXPECT_DOUBLE_EQ(loop.ops_of(399), loop.ops_of(0));
  EXPECT_DOUBLE_EQ(loop.bytes_per_iteration, 800.0 * 8.0);  // DC = C doubles
}

TEST(Mxm, RejectsBadDimensions) {
  EXPECT_THROW((void)make_mxm({0, 1, 1}), std::invalid_argument);
  EXPECT_THROW((void)make_mxm({1, -1, 1}), std::invalid_argument);
}

TEST(Trfd, ArrayDimsMatchPaper) {
  EXPECT_EQ(trfd_array_dim(30), 465);
  EXPECT_EQ(trfd_array_dim(40), 820);
  EXPECT_EQ(trfd_array_dim(50), 1275);
  EXPECT_THROW((void)trfd_array_dim(0), std::invalid_argument);
}

TEST(Trfd, LoopStructure) {
  const auto app = make_trfd({30});
  ASSERT_EQ(app.loops.size(), 2u);
  ASSERT_EQ(app.phases.size(), 1u);
  EXPECT_EQ(app.loops[0].iterations, 465);
  EXPECT_EQ(app.loops[1].iterations, 233);  // ceil(465 / 2)
  const double w1 = 30.0 * 30.0 * 30.0 + 3.0 * 30.0 * 30.0 + 30.0;
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(100), w1);
}

TEST(Trfd, Loop2WorkDecreasesUnfolded) {
  // The unfolded loop 2 is triangular: early iterations cost more.
  const int n = 30;
  const auto N = trfd_array_dim(n);
  EXPECT_GT(trfd_loop2_unfolded_work(n, 1), trfd_loop2_unfolded_work(n, N));
  EXPECT_GT(trfd_loop2_unfolded_work(n, N / 4), trfd_loop2_unfolded_work(n, 3 * N / 4));
  EXPECT_THROW((void)trfd_loop2_unfolded_work(n, 0), std::out_of_range);
  EXPECT_THROW((void)trfd_loop2_unfolded_work(n, N + 1), std::out_of_range);
}

TEST(Trfd, BitonicFoldingEqualizesWork) {
  // Folded iterations should be near-uniform: max/min ratio close to 1.
  const auto app = make_trfd({30});
  const auto& loop2 = app.loops[1];
  double lo = 1e300;
  double hi = 0.0;
  for (std::int64_t k = 0; k < loop2.iterations - 1; ++k) {  // skip lone middle
    const double w = loop2.ops_of(k);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  EXPECT_LT(hi / lo, 1.05);
}

TEST(Trfd, Loop2WorkRoughlyDoubleLoop1) {
  // Paper §6.3: "Loop 2 has almost double the work per iteration than loop 1".
  const auto app = make_trfd({40});
  const double ratio = app.loops[1].mean_ops() / app.loops[0].mean_ops();
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.2);
}

TEST(Trfd, WorkConservedByFolding) {
  // Total folded work equals total unfolded work.
  const int n = 20;
  const auto N = trfd_array_dim(n);
  double unfolded = 0.0;
  for (std::int64_t j = 1; j <= N; ++j) unfolded += trfd_loop2_unfolded_work(n, j);
  const auto app = make_trfd({n});
  EXPECT_NEAR(app.loops[1].total_ops(), unfolded, unfolded * 1e-12);
}

TEST(Synthetic, UniformDescriptor) {
  const auto app = make_uniform(10, 5.0, 2.0);
  EXPECT_DOUBLE_EQ(app.loops[0].total_ops(), 50.0);
  EXPECT_DOUBLE_EQ(app.loops[0].mean_ops(), 5.0);
}

TEST(Synthetic, TriangularDecreases) {
  const auto app = make_triangular(11, 100.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(0), 100.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(10), 0.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(5), 50.0);
  EXPECT_THROW((void)make_triangular(5, 1.0, 2.0, 0.0), std::invalid_argument);
}

TEST(Synthetic, SawtoothAlternates) {
  const auto app = make_sawtooth(4, 10.0, 20.0, 0.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(0), 10.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(1), 20.0);
  EXPECT_DOUBLE_EQ(app.loops[0].total_ops(), 60.0);
}

TEST(LoopDescriptor, RangeChecks) {
  const auto app = make_uniform(10, 5.0, 2.0);
  EXPECT_THROW((void)app.loops[0].ops_of(-1), std::out_of_range);
  EXPECT_THROW((void)app.loops[0].ops_of(10), std::out_of_range);
  EXPECT_THROW((void)app.loops[0].ops_in_range(5, 3), std::out_of_range);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_in_range(3, 3), 0.0);
}

}  // namespace
