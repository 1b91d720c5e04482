// Regression tests for the engine/cluster single-run contract: a
// Cluster/Engine pair is consumed by one Runtime; reusing it (the latent
// hazard a pooled runner could otherwise hit silently) must throw loudly.

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "sim/engine.hpp"

namespace {

using dlb::cluster::Cluster;
using dlb::cluster::ClusterParams;
using dlb::core::DlbConfig;
using dlb::core::Runtime;
using dlb::core::Strategy;

ClusterParams small_params() {
  ClusterParams p;
  p.procs = 2;
  p.base_ops_per_sec = 1e6;
  p.load.max_load = 0;
  return p;
}

DlbConfig nodlb() {
  DlbConfig c;
  c.strategy = Strategy::kNoDlb;
  return c;
}

TEST(EngineReuse, FreshClusterIsAccepted) {
  Cluster cluster(small_params());
  EXPECT_EQ(cluster.engine().events_executed(), 0u);
  Runtime runtime(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb());
  const auto result = runtime.run();
  EXPECT_GT(result.exec_seconds, 0.0);
}

TEST(EngineReuse, SecondRuntimeOnConsumedClusterThrows) {
  Cluster cluster(small_params());
  {
    Runtime first(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb());
    (void)first.run();
  }
  // The engine has executed events and its virtual clock is nonzero: a
  // second Runtime must refuse the cluster instead of silently running at
  // a shifted virtual time with partially consumed load streams.
  EXPECT_GT(cluster.engine().events_executed(), 0u);
  EXPECT_THROW(Runtime(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb()),
               std::logic_error);
}

TEST(EngineReuse, RunTwiceOnOneRuntimeThrows) {
  Cluster cluster(small_params());
  Runtime runtime(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb());
  (void)runtime.run();
  EXPECT_THROW((void)runtime.run(), std::logic_error);
  EXPECT_THROW((void)runtime.run_single_loop(0), std::logic_error);
}

TEST(EngineReuse, SingleLoopRunAlsoConsumes) {
  Cluster cluster(small_params());
  {
    Runtime first(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb());
    (void)first.run_single_loop(0);
  }
  EXPECT_THROW(Runtime(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb()),
               std::logic_error);
}

TEST(EngineReuse, EngineClockNeverResets) {
  Cluster cluster(small_params());
  Runtime runtime(cluster, dlb::apps::make_uniform(8, 1e3, 0.0), nodlb());
  const auto result = runtime.run();
  // The cluster engine's final virtual time is the run's makespan; nothing
  // rewinds it afterwards.
  EXPECT_EQ(dlb::sim::to_seconds(cluster.engine().now()), result.exec_seconds);
}

}  // namespace
