#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include "net/params.hpp"
#include "sim/time.hpp"

namespace {

using dlb::net::Ethernet;
using dlb::net::EthernetParams;
using dlb::sim::from_micros;
using dlb::sim::from_seconds;

TEST(EthernetParams, DefaultLatencyMatchesPaper) {
  const EthernetParams p;
  // Paper §6.1: PVM latency 2414.5 us for a single-byte message.
  EXPECT_NEAR(dlb::sim::to_seconds(p.message_latency(1)) * 1e6, 2414.5, 5.0);
  EXPECT_DOUBLE_EQ(p.bandwidth_bytes_per_sec, 0.96e6);
}

TEST(EthernetParams, OccupancyScalesWithBytes) {
  const EthernetParams p;
  const auto small = p.medium_occupancy(1);
  const auto big = p.medium_occupancy(960000);  // 1 second at 0.96 MB/s
  EXPECT_GT(big, small);
  EXPECT_NEAR(dlb::sim::to_seconds(big - p.medium_overhead), 1.0, 1e-6);
}

TEST(Ethernet, IdleMediumDeliversAfterOccupancyPlusPropagation) {
  const EthernetParams p;
  Ethernet eth(p);
  const auto deliver = eth.transmit(100, 0);
  EXPECT_EQ(deliver, p.medium_occupancy(100) + p.propagation);
}

TEST(Ethernet, BackToBackTransmitsSerialize) {
  const EthernetParams p;
  Ethernet eth(p);
  const auto first = eth.transmit(10, 0);
  const auto second = eth.transmit(10, 0);
  EXPECT_EQ(second - first, p.medium_occupancy(10));
}

TEST(Ethernet, LateHandoffStartsWhenReady) {
  const EthernetParams p;
  Ethernet eth(p);
  const auto ready = from_seconds(10.0);
  const auto deliver = eth.transmit(10, ready);
  EXPECT_EQ(deliver, ready + p.medium_occupancy(10) + p.propagation);
}

TEST(Ethernet, GapLeavesMediumIdle) {
  const EthernetParams p;
  Ethernet eth(p);
  (void)eth.transmit(10, 0);
  const auto deliver = eth.transmit(10, from_seconds(100.0));
  EXPECT_EQ(deliver, from_seconds(100.0) + p.medium_occupancy(10) + p.propagation);
}

TEST(Ethernet, CustomParamsRespected) {
  EthernetParams p;
  p.medium_overhead = from_micros(100.0);
  p.bandwidth_bytes_per_sec = 1e6;
  p.propagation = 0;
  Ethernet eth(p);
  const auto deliver = eth.transmit(1000000, 0);  // 1 MB at 1 MB/s = 1 s + tau_m
  EXPECT_EQ(deliver, from_seconds(1.0) + from_micros(100.0));
}

}  // namespace
