// The workstation CPU as a preemptively shared resource: scheduling quanta,
// fair interleaving between a compute slave and a collocated balancer-like
// coroutine, and the busy() kernel-time primitive.

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.hpp"
#include "cluster/workstation.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace {

using dlb::cluster::Cluster;
using dlb::cluster::ClusterParams;
using dlb::cluster::kCpuQuantum;
using dlb::cluster::Workstation;
using dlb::sim::from_seconds;
using dlb::sim::Process;
using dlb::sim::SimTime;
using dlb::sim::to_seconds;

ClusterParams one_dedicated() {
  ClusterParams p;
  p.procs = 1;
  p.base_ops_per_sec = 1e6;
  p.load.max_load = 0;
  return p;
}

Process compute_job(Workstation& w, double ops, SimTime* done_at) {
  co_await w.compute(ops);
  *done_at = w.engine().now();
}

Process busy_job(Workstation& w, SimTime duration, SimTime* done_at) {
  co_await w.busy(duration);
  *done_at = w.engine().now();
}

TEST(WorkstationCpu, TwoComputeJobsTimeshare) {
  // Two 1-second jobs on one CPU: both finish by ~2 s, and the second
  // starts long before the first ends (round-robin quanta), so its finish
  // is ~2 s rather than 1 s + 1 s strictly serialized from its arrival.
  Cluster c(one_dedicated());
  SimTime done_a = 0;
  SimTime done_b = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &done_a));
  c.engine().spawn(compute_job(c.station(0), 1e6, &done_b));
  c.engine().run();
  EXPECT_NEAR(to_seconds(std::max(done_a, done_b)), 2.0, 0.05);
  // Fairness: both finish within a quantum of each other.
  EXPECT_LE(std::abs(done_a - done_b), kCpuQuantum + from_seconds(0.001));
}

TEST(WorkstationCpu, ShortJobNotStarvedBehindLongJob) {
  // A 10 ms job arriving under a 1 s job must complete in O(quantum), not
  // after the long job — the balancer-next-to-slave scenario.
  Cluster c(one_dedicated());
  SimTime long_done = 0;
  SimTime short_done = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &long_done));
  c.engine().spawn(compute_job(c.station(0), 10e3, &short_done));
  c.engine().run();
  EXPECT_LT(to_seconds(short_done), 0.1);
  EXPECT_GT(to_seconds(long_done), 1.0);
}

TEST(WorkstationCpu, QuantumDoesNotChangeTotalWork) {
  // A lone 2.5 s job spans 125 quanta; slicing it adds no time.
  Cluster c(one_dedicated());
  SimTime done = 0;
  c.engine().spawn(compute_job(c.station(0), 2.5e6, &done));
  c.engine().run();
  EXPECT_NEAR(to_seconds(done), 2.5, 1e-6);
}

TEST(WorkstationCpu, BusyOccupiesCpuExclusively) {
  Cluster c(one_dedicated());
  SimTime busy_done = 0;
  SimTime compute_done = 0;
  c.engine().spawn(busy_job(c.station(0), from_seconds(0.5), &busy_done));
  c.engine().spawn(compute_job(c.station(0), 0.5e6, &compute_done));
  c.engine().run();
  // busy() holds the CPU non-preemptively for its duration.
  EXPECT_NEAR(to_seconds(busy_done), 0.5, 1e-9);
  EXPECT_NEAR(to_seconds(compute_done), 1.0, 1e-6);
}

TEST(WorkstationCpu, BusyZeroIsFree) {
  Cluster c(one_dedicated());
  SimTime done = 123;
  c.engine().spawn(busy_job(c.station(0), 0, &done));
  c.engine().run();
  EXPECT_EQ(done, 0);
}

TEST(WorkstationCpu, LoadAppliesWithinQuanta) {
  // Load blocks of 2.5 quanta: a loaded 1e6-op job finishes when the
  // per-block integral of rate 1e6 / (l + 1) reaches its work, whatever
  // the quantum slicing.
  ClusterParams p = one_dedicated();
  p.load.max_load = 5;
  p.load.persistence = from_seconds(0.05);
  p.seed = 3;
  Cluster c(p);
  SimTime done = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &done));
  c.engine().run();

  auto& lf = c.station(0).load_function();
  double remaining = 1e6;
  double expect_seconds = 0.0;
  for (int k = 0; remaining > 1e-9; ++k) {
    const double rate = 1e6 / (1.0 + lf.level_of_block(k));
    const double in_block = std::min(remaining, rate * 0.05);
    expect_seconds += in_block / rate;
    remaining -= in_block;
  }
  EXPECT_GT(expect_seconds, 1.0);  // some block was loaded
  EXPECT_NEAR(to_seconds(done), expect_seconds, 1e-6);
}

}  // namespace
