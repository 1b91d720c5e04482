#include "net/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/params.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"

namespace {

using dlb::cluster::Cluster;
using dlb::cluster::ClusterParams;
using dlb::net::EthernetParams;
using dlb::net::Network;
using dlb::sim::Engine;
using dlb::sim::Mailbox;
using dlb::sim::Message;
using dlb::sim::Process;
using dlb::sim::SimTime;

struct Fixture {
  Engine engine;
  Network network;
  Mailbox box0;
  Mailbox box1;
  Mailbox box2;

  explicit Fixture(EthernetParams params = {})
      : network(engine, params), box0(engine), box1(engine), box2(engine) {
    network.attach(0, box0);
    network.attach(1, box1);
    network.attach(2, box2);
  }
};

/// The sender side of one message, as cluster::Workstation::send pays it:
/// the stamped frame, o_s on the sending coroutine, then the wire.
Process sender(Fixture& f, int src, int dst, int tag, int value, SimTime* done_at) {
  Message m = f.network.frame(src, dst, tag, value, 64);
  co_await f.engine.sleep_for(f.network.params().sender_overhead);
  f.network.transmit(dst, std::move(m));
  *done_at = f.engine.now();
}

Process receiver(Fixture& f, Mailbox& box, int* value, SimTime* at) {
  const Message m = co_await box.receive();
  co_await f.engine.sleep_for(f.network.params().receiver_overhead);  // unpack
  *value = m.as<int>();
  *at = f.engine.now();
}

TEST(Network, EndToEndSmallMessageLatency) {
  Fixture f;
  SimTime send_done = 0;
  SimTime recv_at = 0;
  int value = 0;
  f.engine.spawn(sender(f, 0, 1, 5, 77, &send_done));
  f.engine.spawn(receiver(f, f.box1, &value, &recv_at));
  f.engine.run();
  EXPECT_EQ(value, 77);
  const EthernetParams p;
  EXPECT_EQ(recv_at, p.message_latency(64));
  // Sender resumes after paying only its own overhead.
  EXPECT_EQ(send_done, p.sender_overhead);
}

TEST(Network, SendToUnattachedEndpointThrows) {
  Fixture f;
  SimTime done = 0;
  f.engine.spawn(sender(f, 0, 9, 1, 0, &done));
  EXPECT_THROW(f.engine.run(), std::invalid_argument);
}

TEST(Network, DoubleAttachThrows) {
  Fixture f;
  Mailbox extra(f.engine);
  EXPECT_THROW(f.network.attach(1, extra), std::invalid_argument);
}

TEST(Network, NegativeAttachThrows) {
  Fixture f;
  Mailbox extra(f.engine);
  EXPECT_THROW(f.network.attach(-1, extra), std::invalid_argument);
}

Process multicaster(Cluster& c, std::vector<int> dsts, SimTime* done_at) {
  co_await c.station(0).multicast(dsts, 3, 1, 64);
  *done_at = c.engine().now();
}

TEST(Network, MulticastSkipsSelfAndPacksOnce) {
  // The pack-once discount is the sender's CPU (cluster::Workstation); the
  // network carries one frame per destination.
  ClusterParams params;
  params.procs = 3;
  params.load.max_load = 0;
  Cluster c(params);
  SimTime done = 0;
  c.engine().spawn(multicaster(c, {0, 1, 2}, &done));
  c.engine().run();
  const EthernetParams p;
  // Self is skipped; the first send pays full o_s, follow-ups the mcast
  // fraction (pack once, send many).
  const auto expected =
      p.sender_overhead + static_cast<SimTime>(static_cast<double>(p.sender_overhead) *
                                               dlb::net::kMulticastExtraFraction);
  EXPECT_EQ(done, expected);
  EXPECT_EQ(c.network().messages_sent(), 2u);
  EXPECT_TRUE(c.station(1).mailbox().has_message(3));
  EXPECT_TRUE(c.station(2).mailbox().has_message(3));
  EXPECT_FALSE(c.station(0).mailbox().has_message(3));
}

TEST(Network, ConcurrentSendersContendOnMedium) {
  Fixture f;
  SimTime d1 = 0;
  SimTime d2 = 0;
  int v1 = 0;
  int v2 = 0;
  SimTime r1 = 0;
  SimTime r2 = 0;
  f.engine.spawn(sender(f, 1, 0, 1, 10, &d1));
  f.engine.spawn(sender(f, 2, 0, 2, 20, &d2));
  f.engine.spawn(receiver(f, f.box0, &v1, &r1));
  f.engine.spawn(receiver(f, f.box0, &v2, &r2));
  f.engine.run();
  const EthernetParams p;
  // Both senders finish the CPU part in parallel; the medium serializes the
  // two frames; the receiver unpacks them one after another.
  const SimTime first_arrival = p.message_latency(64);
  const SimTime second_arrival = first_arrival + p.medium_occupancy(64);
  EXPECT_EQ(r1, first_arrival);
  EXPECT_GE(r2, second_arrival);
  EXPECT_EQ(d1, p.sender_overhead);
  EXPECT_EQ(d2, p.sender_overhead);
}

TEST(Network, MessageMetadataStamped) {
  Fixture f;
  SimTime done = 0;
  f.engine.spawn(sender(f, 0, 1, 9, 5, &done));
  f.engine.run();
  const auto m = f.box1.try_receive(9);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->source, 0);
  EXPECT_EQ(m->bytes, 64u);
  EXPECT_EQ(m->sent_at, 0);
  EXPECT_GT(m->delivered_at, 0);
}

}  // namespace
