// Rack segments: a new network is one rack (the paper's shared LAN);
// set_switched splits it.  Intra-rack traffic stays on its segment, so
// racks no longer contend with each other, and local groups aligned with
// the racks never cross the fabric.

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "net/network.hpp"
#include "net/params.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"

namespace {

using dlb::net::EthernetParams;
using dlb::net::Network;
using dlb::net::SwitchedParams;
using dlb::net::TopologyKind;
using dlb::sim::Engine;
using dlb::sim::Mailbox;
using dlb::sim::Process;
using dlb::sim::SimTime;

// `endpoints` stations; split into racks of `rack_size` when that is
// smaller, else left as the one rack a new network is.
struct Fixture {
  Engine engine;
  Network network;
  std::vector<std::unique_ptr<Mailbox>> boxes;

  explicit Fixture(int endpoints, int rack_size) : network(engine, EthernetParams{}) {
    if (rack_size < endpoints) network.set_switched(endpoints, SwitchedParams{rack_size}, 1);
    for (int i = 0; i < endpoints; ++i) {
      boxes.push_back(std::make_unique<Mailbox>(engine));
      network.attach(i, *boxes.back());
    }
  }
};

/// One message as a workstation sends it: o_s, then the wire.
Process one_send(Fixture& f, int src, int dst) {
  dlb::sim::Message m = f.network.frame(src, dst, 1, std::any{}, 64);
  co_await f.engine.sleep_for(f.network.params().sender_overhead);
  f.network.transmit(dst, std::move(m));
}

Process one_recv(Fixture& f, int who, SimTime* at) {
  (void)co_await f.boxes[static_cast<std::size_t>(who)]->receive(1);
  co_await f.engine.sleep_for(f.network.params().receiver_overhead);  // unpack
  *at = f.engine.now();
}

TEST(Topology, DefaultIsSingleSegment) {
  Fixture f(4, 4);
  EXPECT_EQ(f.network.segments(), 1);
  EXPECT_EQ(f.network.segment_of(0), 0);
  EXPECT_EQ(f.network.segment_of(3), 0);
  EXPECT_EQ(f.network.shard_of(3), 0);
}

TEST(Topology, BlockAssignmentToSegments) {
  Fixture f(4, 2);
  EXPECT_EQ(f.network.segments(), 2);
  EXPECT_EQ(f.network.segment_of(0), 0);
  EXPECT_EQ(f.network.segment_of(1), 0);
  EXPECT_EQ(f.network.segment_of(2), 1);
  EXPECT_EQ(f.network.segment_of(3), 1);
}

TEST(Topology, CrossingsCounted) {
  Fixture f(4, 2);
  f.engine.spawn(one_send(f, 0, 1));
  f.engine.spawn(one_send(f, 0, 3));
  SimTime a = 0;
  SimTime b = 0;
  f.engine.spawn(one_recv(f, 1, &a));
  f.engine.spawn(one_recv(f, 3, &b));
  f.engine.run();
  EXPECT_EQ(f.network.bridge_crossings(), 1u);
}

TEST(Topology, SegmentsIsolateContention) {
  // Two concurrent intra-rack conversations: with one rack the second
  // message queues behind the first; with two racks they overlap.
  const auto run_case = [](int rack_size) {
    Fixture f(4, rack_size);
    f.engine.spawn(one_send(f, 0, 1));
    f.engine.spawn(one_send(f, 2, 3));
    SimTime a = 0;
    SimTime b = 0;
    f.engine.spawn(one_recv(f, 1, &a));
    f.engine.spawn(one_recv(f, 3, &b));
    f.engine.run();
    return std::max(a, b);
  };
  EXPECT_GT(run_case(4), run_case(2));
}

TEST(Topology, Rejections) {
  {
    Fixture f(4, 4);
    EXPECT_THROW(f.network.set_switched(0, SwitchedParams{2}, 1), std::invalid_argument);
    EXPECT_THROW(f.network.set_switched(4, SwitchedParams{0}, 1), std::invalid_argument);
    // 4 endpoints in racks of 2: two racks, so at most two shards.
    EXPECT_THROW(f.network.set_switched(4, SwitchedParams{2}, 3), std::invalid_argument);
    EXPECT_THROW(f.network.set_switched(4, SwitchedParams{2}, 0), std::invalid_argument);
  }
  {
    Fixture f(4, 2);  // already split
    EXPECT_THROW(f.network.set_switched(4, SwitchedParams{2}, 1), std::logic_error);
    EXPECT_THROW((void)f.network.segment_of(4), std::invalid_argument);
    EXPECT_THROW((void)f.network.segment_of(-1), std::invalid_argument);
  }
}

TEST(Topology, NoReconfigurationAfterTraffic) {
  Fixture f(2, 2);
  SimTime at = 0;
  f.engine.spawn(one_send(f, 0, 1));
  f.engine.spawn(one_recv(f, 1, &at));
  f.engine.run();
  EXPECT_THROW(f.network.set_switched(2, SwitchedParams{1}, 1), std::logic_error);
}

dlb::cluster::ClusterParams two_racks_of_four() {
  dlb::cluster::ClusterParams params;
  params.procs = 8;
  params.base_ops_per_sec = 1e6;
  params.topology = TopologyKind::kSwitched;
  params.switched.rack_size = 4;
  return params;
}

TEST(TopologyCluster, SegmentedClusterRunsDlb) {
  const auto params = two_racks_of_four();
  const auto app = dlb::apps::make_uniform(64, 30e3, 64.0);
  for (const auto strategy :
       {dlb::core::Strategy::kGDDLB, dlb::core::Strategy::kLDDLB}) {
    dlb::core::DlbConfig config;
    config.strategy = strategy;
    const auto r = dlb::core::run_app(params, app, config);
    std::int64_t total = 0;
    for (const auto n : r.loops[0].executed_per_proc) total += n;
    EXPECT_EQ(total, 64);
  }
}

TEST(TopologyCluster, LocalGroupsAlignedWithSegmentsAvoidTheBridge) {
  auto params = two_racks_of_four();
  params.seed = 3;
  const auto app = dlb::apps::make_uniform(96, 40e3, 256.0);

  dlb::core::DlbConfig local;
  local.strategy = dlb::core::Strategy::kLDDLB;
  local.group_size = 4;  // groups == racks (both are contiguous blocks)
  dlb::cluster::Cluster c_local(params);
  dlb::core::Runtime r_local(c_local, app, local);
  (void)r_local.run();

  dlb::core::DlbConfig global;
  global.strategy = dlb::core::Strategy::kGDDLB;
  dlb::cluster::Cluster c_global(params);
  dlb::core::Runtime r_global(c_global, app, global);
  (void)r_global.run();

  // The aligned local scheme never crosses the fabric; the global one must.
  EXPECT_EQ(c_local.network().bridge_crossings(), 0u);
  EXPECT_GT(c_global.network().bridge_crossings(), 0u);
}

}  // namespace
