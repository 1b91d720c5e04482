#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "core/types.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"
#include "net/params.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace {

using dlb::apps::make_uniform;
using dlb::cluster::Cluster;
using dlb::cluster::ClusterParams;
using dlb::core::DlbConfig;
using dlb::core::run_app;
using dlb::core::RunResult;
using dlb::core::Strategy;
using dlb::net::CrossbarPort;
using dlb::net::EthernetParams;
using dlb::net::kCutThrough;
using dlb::net::Network;
using dlb::net::parse_topology;
using dlb::net::port_occupancy;
using dlb::net::rack_count;
using dlb::net::rack_of;
using dlb::net::shard_of_rack;
using dlb::net::SwitchedParams;
using dlb::net::topology_name;
using dlb::net::TopologyKind;
using dlb::sim::Engine;
using dlb::sim::Mailbox;
using dlb::sim::Message;
using dlb::sim::Process;
using dlb::sim::SimTime;

TEST(Topology, RackPartition) {
  EXPECT_EQ(rack_of(0, 4), 0);
  EXPECT_EQ(rack_of(3, 4), 0);
  EXPECT_EQ(rack_of(4, 4), 1);
  EXPECT_EQ(rack_count(16, 4), 4);
  // P not divisible by the rack size: a partial last rack.
  EXPECT_EQ(rack_count(17, 4), 5);
  EXPECT_EQ(rack_of(16, 4), 4);
  // Degenerate shapes.
  EXPECT_EQ(rack_count(1, 32), 1);   // P = 1
  EXPECT_EQ(rack_count(8, 8), 1);    // single rack, exact fit
  EXPECT_EQ(rack_count(3, 32), 1);   // rack_size > P
  EXPECT_EQ(rack_of(2, 32), 0);
}

TEST(Topology, ShardOfRackIsContiguousAndBalanced) {
  const int racks = 10;
  const int shards = 4;
  std::vector<int> sizes(shards, 0);
  int prev = 0;
  for (int r = 0; r < racks; ++r) {
    const int s = shard_of_rack(r, racks, shards);
    EXPECT_GE(s, prev);      // contiguous blocks, never interleaved
    EXPECT_LT(s, shards);
    prev = s;
    ++sizes[static_cast<std::size_t>(s)];
  }
  for (const int n : sizes) {
    EXPECT_GE(n, racks / shards);
    EXPECT_LE(n, racks / shards + 1);
  }
  // shards == racks: identity; one shard: everything on shard 0.
  EXPECT_EQ(shard_of_rack(7, 8, 8), 7);
  EXPECT_EQ(shard_of_rack(7, 8, 1), 0);
}

TEST(Topology, ParseAndName) {
  EXPECT_EQ(parse_topology("shared"), TopologyKind::kShared);
  EXPECT_EQ(parse_topology("switched"), TopologyKind::kSwitched);
  EXPECT_THROW((void)parse_topology("mesh"), std::invalid_argument);
  EXPECT_STREQ(topology_name(TopologyKind::kShared), "shared");
  EXPECT_STREQ(topology_name(TopologyKind::kSwitched), "switched");
}

TEST(Topology, CrossbarPortSerializesFrames) {
  CrossbarPort port;
  const SimTime occ = port_occupancy(1000);
  EXPECT_EQ(port.transmit(1000, 100), 100 + occ);
  // Second frame arrives while the port is busy: queued behind the first.
  EXPECT_EQ(port.transmit(1000, 150), 100 + 2 * occ);
  // Idle gap: starts at its own ready time.
  EXPECT_EQ(port.transmit(1000, 1'000'000), 1'000'000 + occ);
}

// Four stations in two racks of two, on a one-shard engine by default (the
// fabric path itself is topology, not sharding).
struct SwitchedFixture {
  Engine engine;
  Network network;
  std::vector<std::unique_ptr<Mailbox>> boxes;
  SwitchedParams switched;

  explicit SwitchedFixture(int procs = 4, int rack_size = 2, int shards = 1)
      : network(engine, EthernetParams{}) {
    switched.rack_size = rack_size;
    boxes.reserve(static_cast<std::size_t>(procs));
    for (int i = 0; i < procs; ++i) {
      boxes.push_back(std::make_unique<Mailbox>(engine));
      network.attach(i, *boxes.back());
    }
    network.set_switched(procs, switched, shards);
  }
};

/// One message as a workstation sends it: o_s, then the wire.
Process switched_sender(SwitchedFixture& f, int src, int dst, SimTime* done_at) {
  Message m = f.network.frame(src, dst, 1, 7, 64);
  co_await f.engine.sleep_for(f.network.params().sender_overhead);
  f.network.transmit(dst, std::move(m));
  *done_at = f.engine.now();
}

Process switched_receiver(SwitchedFixture& f, Mailbox& box, int* value, SimTime* at) {
  const Message m = co_await box.receive();
  co_await f.engine.sleep_for(f.network.params().receiver_overhead);  // unpack
  *value = m.as<int>();
  *at = f.engine.now();
}

TEST(SwitchedNetwork, IntraRackMatchesSharedEthernet) {
  SwitchedFixture f;
  SimTime done = 0;
  SimTime recv_at = 0;
  int value = 0;
  f.engine.spawn(switched_sender(f, 0, 1, &done));
  f.engine.spawn(switched_receiver(f, *f.boxes[1], &value, &recv_at));
  f.engine.run();
  const EthernetParams p;
  EXPECT_EQ(value, 7);
  EXPECT_EQ(recv_at, p.message_latency(64));
  EXPECT_EQ(f.network.bridge_crossings(), 0u);
}

TEST(SwitchedNetwork, CrossRackPaysFabricAndBothSegments) {
  SwitchedFixture f;
  SimTime done = 0;
  SimTime recv_at = 0;
  int value = 0;
  f.engine.spawn(switched_sender(f, 0, 2, &done));
  f.engine.spawn(switched_receiver(f, *f.boxes[2], &value, &recv_at));
  f.engine.run();
  const EthernetParams p;
  // o_s + src segment (occ + prop) + cut-through + output port + dst segment
  // (occ + prop) + o_r.
  const SimTime expected = p.sender_overhead + 2 * (p.medium_occupancy(64) + p.propagation) +
                           kCutThrough + port_occupancy(64) + p.receiver_overhead;
  EXPECT_EQ(value, 7);
  EXPECT_EQ(recv_at, expected);
  // Sender resumes after o_s, exactly as on the shared medium.
  EXPECT_EQ(done, p.sender_overhead);
  EXPECT_EQ(f.network.messages_sent(), 1u);
  EXPECT_EQ(f.network.bytes_sent(), 64u);
  EXPECT_EQ(f.network.bridge_crossings(), 1u);
}

ClusterParams switched_params(int procs, int rack_size, int shards) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.seed = 7;
  p.topology = TopologyKind::kSwitched;
  p.switched.rack_size = rack_size;
  p.engine_shards = shards;
  return p;
}

TEST(SwitchedCluster, SharedTopologyNeverShards) {
  ClusterParams p;
  p.procs = 8;
  p.engine_shards = 8;  // ignored: a broadcast domain has zero lookahead
  Cluster cluster(p);
  EXPECT_EQ(cluster.engine().shards(), 1);
  EXPECT_EQ(cluster.shard_of(7), 0);
}

TEST(SwitchedCluster, ShardCountClampedToRacks) {
  {
    Cluster cluster(switched_params(8, 8, 4));  // one rack -> one shard
    EXPECT_EQ(cluster.engine().shards(), 1);
  }
  {
    Cluster cluster(switched_params(9, 8, 8));  // two racks -> two shards
    EXPECT_EQ(cluster.engine().shards(), 2);
    EXPECT_EQ(cluster.shard_of(0), 0);
    EXPECT_EQ(cluster.shard_of(8), 1);
  }
}

TEST(SwitchedCluster, RejectsNonPositiveRackSize) {
  // The rack count divides by the rack size, so the cluster must refuse it
  // before building anything.
  for (const int rack_size : {0, -1}) {
    try {
      Cluster cluster(switched_params(8, rack_size, 1));
      ADD_FAILURE() << "rack size " << rack_size << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rack_size"), std::string::npos) << e.what();
    }
  }
}

TEST(SwitchedCluster, ObservabilityRequiresUnsharded) {
  // Each layer that samples global engine state or injects cross-station
  // actions is rejected on a sharded engine: the recorder, its activity log
  // and an armed fault plan.
  DlbConfig observed;
  observed.observe = true;
  DlbConfig traced;
  traced.record_trace = true;
  DlbConfig faulty;
  faulty.faults = dlb::fault::FaultPlan::preset("crash-half");
  const auto app = make_uniform(16, 20e3, 100.0);
  for (DlbConfig config : {observed, traced, faulty}) {
    config.strategy = Strategy::kGCDLB;
    EXPECT_THROW(run_app(switched_params(8, 4, 2), app, config), std::invalid_argument);
    // With one shard the engine runs no windows and each layer works.
    const auto r = run_app(switched_params(8, 4, 1), app, config);
    EXPECT_GT(r.exec_seconds, 0.0);
  }
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.exec_seconds, b.exec_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (std::size_t i = 0; i < a.loops.size(); ++i) {
    EXPECT_EQ(a.loops[i].executed_per_proc, b.loops[i].executed_per_proc);
    EXPECT_EQ(a.loops[i].finish_per_proc, b.loops[i].finish_per_proc);
    ASSERT_EQ(a.loops[i].events.size(), b.loops[i].events.size());
    for (std::size_t e = 0; e < a.loops[i].events.size(); ++e) {
      EXPECT_EQ(a.loops[i].events[e].at_seconds, b.loops[i].events[e].at_seconds);
      EXPECT_EQ(a.loops[i].events[e].group, b.loops[i].events[e].group);
      EXPECT_EQ(a.loops[i].events[e].round, b.loops[i].events[e].round);
      EXPECT_EQ(a.loops[i].events[e].iterations_moved, b.loops[i].events[e].iterations_moved);
    }
  }
}

class SwitchedShardInvariance : public ::testing::TestWithParam<Strategy> {};

// The tentpole determinism claim: on a switched cluster the shard count is
// pure mechanism — every observable result is identical at 1, 2 and 4
// shards (1 shard runs no windows at all).
TEST_P(SwitchedShardInvariance, ResultsIdenticalAcrossShardCounts) {
  const auto app = make_uniform(64, 20e3, 100.0);
  DlbConfig config;
  config.strategy = GetParam();
  const auto r1 = run_app(switched_params(16, 4, 1), app, config);
  const auto r2 = run_app(switched_params(16, 4, 2), app, config);
  const auto r4 = run_app(switched_params(16, 4, 4), app, config);
  expect_identical(r1, r2);
  expect_identical(r1, r4);
  // Everything but the static baseline must actually exercise the fabric.
  if (GetParam() != Strategy::kNoDlb) {
    EXPECT_GT(r1.messages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, SwitchedShardInvariance,
                         ::testing::Values(Strategy::kNoDlb, Strategy::kGCDLB,
                                           Strategy::kGDDLB, Strategy::kLCDLB,
                                           Strategy::kLDDLB));

}  // namespace
