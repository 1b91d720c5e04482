#include "net/patterns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/params.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"

namespace {

using dlb::net::EthernetParams;
using dlb::net::measure_pattern;
using dlb::net::Network;
using dlb::net::Pattern;
using dlb::sim::SimTime;

constexpr int kTag = 7;

/// One endpoint of a simulated pattern: a pvm_send to each of `dsts` in
/// order, full sender overhead each (the paper's §6.1 methodology; the DLB
/// library's own broadcasts use the cheaper pack-once multicast), then
/// `receives` receives, each paying the receiver's unpack overhead o_r.
/// Each send is paid as cluster::Workstation::send pays it: o_s, then the
/// frame goes on the wire.
dlb::sim::Process endpoint(dlb::sim::Engine& engine, Network& network,
                           dlb::sim::Mailbox& mailbox, int self, std::vector<int> dsts,
                           int receives, std::size_t bytes, SimTime* finished_at) {
  for (const int dst : dsts) {
    dlb::sim::Message m = network.frame(self, dst, kTag, std::any{}, bytes);
    co_await engine.sleep_for(network.params().sender_overhead);
    network.transmit(dst, std::move(m));
  }
  for (int i = 0; i < receives; ++i) {
    (void)co_await mailbox.receive(kTag);
    co_await engine.sleep_for(network.params().receiver_overhead);
  }
  *finished_at = engine.now();
}

/// The pattern simulated event by event on a fresh shared LAN, endpoint 0
/// as the root: the oracle that measure_pattern's closed forms fold.
/// Returns the time at which the last endpoint has consumed its last
/// message, in seconds.
double simulated(Pattern pattern, int procs, std::size_t bytes, const EthernetParams& params) {
  const auto sends = [pattern](int src, int dst) {
    if (src == dst) return false;
    switch (pattern) {
      case Pattern::kOneToAll:
        return src == 0;
      case Pattern::kAllToOne:
        return dst == 0;
      case Pattern::kAllToAll:
        return true;
    }
    return false;
  };
  dlb::sim::Engine engine;
  Network network(engine, params);
  std::vector<std::unique_ptr<dlb::sim::Mailbox>> mailboxes;
  for (int i = 0; i < procs; ++i) {
    mailboxes.push_back(std::make_unique<dlb::sim::Mailbox>(engine));
    network.attach(i, *mailboxes.back());
  }
  std::vector<SimTime> finished(static_cast<std::size_t>(procs), 0);
  for (int i = 0; i < procs; ++i) {
    std::vector<int> dsts;
    int receives = 0;
    for (int j = 0; j < procs; ++j) {
      if (sends(i, j)) dsts.push_back(j);
      if (sends(j, i)) ++receives;
    }
    const auto slot = static_cast<std::size_t>(i);
    engine.spawn(endpoint(engine, network, *mailboxes[slot], i, std::move(dsts), receives, bytes,
                          &finished[slot]));
  }
  engine.run();
  return dlb::sim::to_seconds(*std::max_element(finished.begin(), finished.end()));
}

/// Both regimes of a medium reservation max(ready, medium free): senders
/// limited (huge o_s) and medium limited (tiny o_s, fat frames).
std::vector<EthernetParams> skewed_params() {
  EthernetParams sender_bound;
  sender_bound.sender_overhead = dlb::sim::from_micros(10'000.0);
  EthernetParams medium_bound;
  medium_bound.sender_overhead = dlb::sim::from_micros(10.0);
  medium_bound.receiver_overhead = dlb::sim::from_micros(5.0);
  return {sender_bound, medium_bound};
}

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
  // The closed form must be bit-equal to the simulated exchange: it is the
  // same cost model, folded.
  const EthernetParams params;
  for (int procs = 2; procs <= 64; ++procs) {
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{1500}, std::size_t{65536}}) {
      const double analytic = dlb::net::alltoall_analytic(procs, bytes, params);
      ASSERT_EQ(simulated(Pattern::kAllToAll, procs, bytes, params), analytic)
          << "procs=" << procs << " bytes=" << bytes;
    }
  }
}

TEST(PatternCost, AnalyticAllToAllMatchesUnderSkewedParams) {
  // Exercise both regimes of B_j = max(j*o_s, F_{j-1}).
  for (const auto& params : skewed_params()) {
    for (const int procs : {2, 3, 5, 16, 33, 64}) {
      const double analytic = dlb::net::alltoall_analytic(procs, 4096, params);
      ASSERT_EQ(simulated(Pattern::kAllToAll, procs, 4096, params), analytic)
          << "procs=" << procs;
    }
  }
}

TEST(PatternCost, OneToAllAndAllToOneMatchSimulationExactly) {
  // The closed forms must be bit-equal to the simulated patterns, under the
  // default parameters and in both skewed regimes, from control messages to
  // frames far longer than o_s.
  auto param_sets = skewed_params();
  param_sets.insert(param_sets.begin(), EthernetParams{});
  for (const auto& params : param_sets) {
    for (int procs = 2; procs <= 64; ++procs) {
      for (const std::size_t bytes : {std::size_t{1}, std::size_t{64}, std::size_t{4096},
                                      std::size_t{100000}}) {
        for (const auto pattern : {Pattern::kOneToAll, Pattern::kAllToOne}) {
          ASSERT_EQ(simulated(pattern, procs, bytes, params),
                    measure_pattern(pattern, procs, bytes, params))
              << "pattern=" << static_cast<int>(pattern) << " procs=" << procs
              << " bytes=" << bytes << " o_s=" << params.sender_overhead;
        }
      }
    }
  }
}

TEST(PatternCost, LargeAllToAllRoutesToClosedForm) {
  // measure_pattern prices every all-to-all with the closed form, so even
  // P = 4096 stays O(P) arithmetic (no O(P^2) event storm).
  const EthernetParams params;
  for (const int procs : {2, 16, 64, 65, 512, 4096}) {
    EXPECT_EQ(measure_pattern(Pattern::kAllToAll, procs, 64, params),
              dlb::net::alltoall_analytic(procs, 64, params))
        << "procs=" << procs;
  }
}

}  // namespace
