#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/workstation.hpp"
#include "sim/frame_arena.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace {

using dlb::cluster::Cluster;
using dlb::cluster::ClusterParams;
using dlb::cluster::Workstation;
using dlb::sim::FrameArena;
using dlb::sim::from_seconds;
using dlb::sim::Process;
using dlb::sim::SimTime;
using dlb::sim::to_seconds;

ClusterParams dedicated(int procs, double base_rate = 1e6) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = base_rate;
  p.load.max_load = 0;
  return p;
}

Process compute_job(Workstation& w, double ops, SimTime* done_at) {
  co_await w.compute(ops);
  *done_at = w.engine().now();
}

TEST(Cluster, DedicatedComputeTakesOpsOverRate) {
  Cluster c(dedicated(1));
  SimTime done = 0;
  c.engine().spawn(compute_job(c.station(0), 2e6, &done));  // 2 s at 1 Mop/s
  c.engine().run();
  EXPECT_NEAR(to_seconds(done), 2.0, 1e-9);
}

TEST(Cluster, FasterStationFinishesSooner) {
  auto params = dedicated(2);
  params.speeds = {1.0, 2.0};
  Cluster c(params);
  SimTime done0 = 0;
  SimTime done1 = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &done0));
  c.engine().spawn(compute_job(c.station(1), 1e6, &done1));
  c.engine().run();
  EXPECT_NEAR(to_seconds(done0), 1.0, 1e-9);
  EXPECT_NEAR(to_seconds(done1), 0.5, 1e-9);
}

TEST(Cluster, ExternalLoadSlowsCompute) {
  // m_l = 0 vs a loaded run with forced seed.
  ClusterParams loaded = dedicated(1);
  loaded.load.max_load = 5;
  loaded.seed = 11;
  Cluster lc(loaded);
  SimTime t_loaded = 0;
  lc.engine().spawn(compute_job(lc.station(0), 5e6, &t_loaded));
  lc.engine().run();

  Cluster dc(dedicated(1));
  SimTime t_dedicated = 0;
  dc.engine().spawn(compute_job(dc.station(0), 5e6, &t_dedicated));
  dc.engine().run();

  EXPECT_GE(t_loaded, t_dedicated);
}

TEST(Cluster, LoadedComputeMatchesHandIntegration) {
  // One processor, base 1 Mop/s, load blocks of 1 s.  Walk the generated
  // trace and integrate by hand, then compare with the simulated finish time.
  ClusterParams params = dedicated(1);
  params.load.max_load = 5;
  params.seed = 77;
  params.load.persistence = from_seconds(1.0);
  Cluster c(params);
  const double ops = 3.7e6;
  SimTime done = 0;
  c.engine().spawn(compute_job(c.station(0), ops, &done));
  c.engine().run();

  auto& lf = c.station(0).load_function();
  double remaining = ops;
  double expect_seconds = 0.0;
  for (int k = 0; remaining > 1e-9; ++k) {
    const double rate = 1e6 / (1.0 + lf.level_of_block(k));
    const double in_block = std::min(remaining, rate * 1.0);
    expect_seconds += in_block / rate;
    remaining -= in_block;
  }
  EXPECT_NEAR(to_seconds(done), expect_seconds, 1e-6);
}

TEST(Cluster, ComputeZeroOpsIsInstant) {
  Cluster c(dedicated(1));
  SimTime done = 123;
  c.engine().spawn(compute_job(c.station(0), 0.0, &done));
  c.engine().run();
  EXPECT_EQ(done, 0);
}

Process pingpong_a(Cluster& c, SimTime* finished) {
  co_await c.station(0).send(1, 1, 42, 64);
  const auto reply = co_await c.station(0).receive(2);
  EXPECT_EQ(reply.as<int>(), 43);
  *finished = c.engine().now();
}

Process pingpong_b(Cluster& c) {
  const auto m = co_await c.station(1).receive(1);
  co_await c.station(1).send(0, 2, m.as<int>() + 1, 64);
}

TEST(Cluster, StationsExchangeMessages) {
  Cluster c(dedicated(2));
  SimTime finished = 0;
  c.engine().spawn(pingpong_a(c, &finished));
  c.engine().spawn(pingpong_b(c));
  c.engine().run();
  EXPECT_GT(finished, 0);
}

TEST(Cluster, ComputeRejectsWorkVirtualTimeCannotHold) {
  // Each used to convert its duration to nanoseconds out of range.
  for (const double ops : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    Cluster c(dedicated(1));
    SimTime done = 0;
    c.engine().spawn(compute_job(c.station(0), ops, &done));
    EXPECT_THROW(c.engine().run(), std::invalid_argument) << ops;
  }
  // The bound is the slowest rate the station can run at: 2e15 ops would
  // take 2e9 s dedicated, but six times that at load level 5, past
  // SimTime's 9.2e9 s.
  ClusterParams loaded = dedicated(1);
  loaded.load.max_load = 5;
  Cluster c(loaded);
  SimTime done = 0;
  c.engine().spawn(compute_job(c.station(0), 2e15, &done));
  EXPECT_THROW(c.engine().run(), std::invalid_argument);
}

Process send_one(Workstation& w, int dst) { co_await w.send(dst, 1, 0, 64); }

Process multicast_all(Workstation& w, std::vector<int> dsts) {
  co_await w.multicast(dsts, 1, 0, 64);
}

/// Coroutine frames live on this thread's arena halfway through station 0's
/// first o_s.
std::uint64_t live_frames_at_half_o_s(Cluster& c) {
  std::uint64_t during = 0;
  c.engine().schedule_at(c.network().params().sender_overhead / 2,
                         [live = &during] { *live = FrameArena::stats().live; });
  c.engine().run();
  return during;
}

TEST(Workstation, SendHoldsOneFrameUnderItsProcess) {
  // The sender side of a message is the station's own: its process and the
  // send task, with no network coroutine beneath.
  Cluster c(dedicated(2));
  const std::uint64_t before = FrameArena::stats().live;
  c.engine().spawn(send_one(c.station(0), 1));
  EXPECT_EQ(live_frames_at_half_o_s(c) - before, 2u);
  EXPECT_EQ(c.network().messages_sent(), 1u);
}

TEST(Workstation, MulticastHoldsOneFrameUnderItsProcess) {
  Cluster c(dedicated(3));
  const std::uint64_t before = FrameArena::stats().live;
  c.engine().spawn(multicast_all(c.station(0), {0, 1, 2}));
  EXPECT_EQ(live_frames_at_half_o_s(c) - before, 2u);
  EXPECT_EQ(c.network().messages_sent(), 2u);
}

TEST(Workstation, SendToUnattachedEndpointThrowsBeforePayingOverhead) {
  Cluster c(dedicated(2));
  c.engine().spawn(send_one(c.station(0), 7));
  EXPECT_THROW(c.engine().run(), std::invalid_argument);
  EXPECT_EQ(c.engine().now(), 0);
}

TEST(Cluster, IndependentLoadStreamsPerStation) {
  ClusterParams params = dedicated(4);
  params.load.max_load = 5;
  params.seed = 5;
  Cluster c(params);
  // Force generation of some blocks, then check the traces differ somewhere.
  bool any_difference = false;
  for (int k = 0; k < 64 && !any_difference; ++k) {
    const int l0 = c.station(0).load_function().level_of_block(k);
    for (int i = 1; i < 4; ++i) {
      if (c.station(i).load_function().level_of_block(k) != l0) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Cluster, RejectsBadConfig) {
  auto zero = dedicated(0);
  EXPECT_THROW(Cluster{zero}, std::invalid_argument);
  auto mismatched = dedicated(3);
  mismatched.speeds = {1.0};
  EXPECT_THROW(Cluster{mismatched}, std::invalid_argument);
}

}  // namespace
