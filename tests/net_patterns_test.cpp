#include "net/patterns.hpp"

#include <gtest/gtest.h>


#include "net/params.hpp"

namespace {

using dlb::net::EthernetParams;
using dlb::net::measure_pattern;
using dlb::net::Pattern;

class PatternCost : public ::testing::TestWithParam<int> {};

TEST_P(PatternCost, AllToAllIsMostExpensive) {
  const int procs = GetParam();
  const EthernetParams params;
  const double oa = measure_pattern(Pattern::kOneToAll, procs, 64, params);
  const double ao = measure_pattern(Pattern::kAllToOne, procs, 64, params);
  const double aa = measure_pattern(Pattern::kAllToAll, procs, 64, params);
  EXPECT_GT(aa, oa);
  EXPECT_GT(aa, ao);
  EXPECT_GT(oa, 0.0);
  EXPECT_GT(ao, 0.0);
}

TEST_P(PatternCost, CostsGrowWithProcs) {
  const int procs = GetParam();
  const EthernetParams params;
  for (const auto pattern : {Pattern::kOneToAll, Pattern::kAllToOne, Pattern::kAllToAll}) {
    const double small = measure_pattern(pattern, procs, 64, params);
    const double big = measure_pattern(pattern, procs + 1, 64, params);
    EXPECT_GT(big, small) << "pattern " << static_cast<int>(pattern);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PatternCost, ::testing::Values(2, 4, 8, 16));

TEST(PatternCost, AllToAllQuadraticOneToAllLinear) {
  const EthernetParams params;
  // Ratio of cost(2P)/cost(P): ~2 for a linear pattern, ~4 for quadratic.
  const double oa8 = measure_pattern(Pattern::kOneToAll, 8, 64, params);
  const double oa16 = measure_pattern(Pattern::kOneToAll, 16, 64, params);
  const double aa8 = measure_pattern(Pattern::kAllToAll, 8, 64, params);
  const double aa16 = measure_pattern(Pattern::kAllToAll, 16, 64, params);
  EXPECT_LT(oa16 / oa8, 2.6);
  EXPECT_GT(aa16 / aa8, 2.8);
}

TEST(PatternCost, AllToAllSubstantiallyAboveOneToAllAt16) {
  // Paper Fig. 4: at 16 procs AA is a small multiple of OA (roughly 4-5x on
  // their PVM/Ethernet; the exact factor depends on the pack/send split).
  const EthernetParams params;
  const double oa = measure_pattern(Pattern::kOneToAll, 16, 64, params);
  const double aa = measure_pattern(Pattern::kAllToAll, 16, 64, params);
  EXPECT_GT(aa / oa, 3.0);
  EXPECT_LT(aa / oa, 14.0);
}

TEST(PatternCost, LargerMessagesCostMore) {
  const EthernetParams params;
  const double small = measure_pattern(Pattern::kOneToAll, 8, 64, params);
  const double big = measure_pattern(Pattern::kOneToAll, 8, 64 * 1024, params);
  EXPECT_GT(big, small);
}

TEST(PatternCost, RejectsDegenerateProcCount) {
  const EthernetParams params;
  EXPECT_THROW((void)measure_pattern(Pattern::kOneToAll, 1, 64, params), std::invalid_argument);
}

TEST(PatternCost, Deterministic) {
  const EthernetParams params;
  const double a = measure_pattern(Pattern::kAllToAll, 6, 64, params);
  const double b = measure_pattern(Pattern::kAllToAll, 6, 64, params);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(PatternCost, AnalyticAllToAllMatchesSimulationExactly) {
  // The closed form must be bit-equal to the simulated exchange for every
  // size below the routing threshold — it is the same cost model, folded.
  const EthernetParams params;
  for (int procs = 2; procs <= dlb::net::kAnalyticAllToAllThreshold; ++procs) {
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{1500}, std::size_t{65536}}) {
      const double simulated = measure_pattern(Pattern::kAllToAll, procs, bytes, params);
      const double analytic = dlb::net::alltoall_analytic(procs, bytes, params);
      ASSERT_EQ(simulated, analytic) << "procs=" << procs << " bytes=" << bytes;
    }
  }
}

TEST(PatternCost, AnalyticAllToAllMatchesUnderSkewedParams) {
  // Exercise both regimes of B_j = max(j*o_s, F_{j-1}): senders limited
  // (huge o_s) and medium limited (tiny o_s, fat frames).
  EthernetParams sender_bound;
  sender_bound.sender_overhead = dlb::sim::from_micros(10'000.0);
  EthernetParams medium_bound;
  medium_bound.sender_overhead = dlb::sim::from_micros(10.0);
  medium_bound.receiver_overhead = dlb::sim::from_micros(5.0);
  for (const auto& params : {sender_bound, medium_bound}) {
    for (const int procs : {2, 3, 5, 16, 33, 64}) {
      const double simulated = measure_pattern(Pattern::kAllToAll, procs, 4096, params);
      const double analytic = dlb::net::alltoall_analytic(procs, 4096, params);
      ASSERT_EQ(simulated, analytic) << "procs=" << procs;
    }
  }
}

TEST(PatternCost, LargeAllToAllRoutesToClosedForm) {
  // Above the threshold the call must stay cheap (no O(P^2) event storm)
  // and continuous with the simulated regime at the boundary.
  const EthernetParams params;
  const double at_boundary = measure_pattern(Pattern::kAllToAll, 64, 64, params);
  const double above = measure_pattern(Pattern::kAllToAll, 65, 64, params);
  const double huge = measure_pattern(Pattern::kAllToAll, 4096, 64, params);
  EXPECT_GT(above, at_boundary);
  EXPECT_GT(huge, above);
}

}  // namespace
