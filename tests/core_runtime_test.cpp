#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "cluster/cluster.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"
#include "sim/frame_arena.hpp"
#include "sim/time.hpp"

namespace {

using dlb::apps::make_mxm;
using dlb::apps::make_trfd;
using dlb::apps::make_uniform;
using dlb::cluster::ClusterParams;
using dlb::core::AppDescriptor;
using dlb::core::DlbConfig;
using dlb::core::run_app;
using dlb::core::RunResult;
using dlb::core::Runtime;
using dlb::core::Strategy;
using dlb::sim::FrameArena;

ClusterParams base_params(int procs, bool load = false, std::uint64_t seed = 42) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  if (!load) p.load.max_load = 0;  // dedicated machines
  p.seed = seed;
  return p;
}

DlbConfig config_for(Strategy s) {
  DlbConfig c;
  c.strategy = s;
  return c;
}

constexpr Strategy kAllStrategies[] = {Strategy::kNoDlb, Strategy::kGCDLB, Strategy::kGDDLB,
                                       Strategy::kLCDLB, Strategy::kLDDLB};

std::int64_t executed_total(const RunResult& r) {
  std::int64_t total = 0;
  for (const auto& loop : r.loops) {
    for (const auto n : loop.executed_per_proc) total += n;
  }
  return total;
}

TEST(RuntimeNoDlb, DedicatedUniformRunsInExpectedTime) {
  // 40 iterations x 25k ops on 4 dedicated 1 Mop/s procs -> 10 iters each,
  // 0.25 s makespan.
  const auto app = make_uniform(40, 25e3, 0.0);
  const auto r = run_app(base_params(4), app, config_for(Strategy::kNoDlb));
  EXPECT_NEAR(r.loops[0].finish_seconds, 0.25, 1e-6);
  EXPECT_EQ(executed_total(r), 40);
  EXPECT_EQ(r.total_syncs(), 0);
  EXPECT_EQ(r.messages, 0u);
}

TEST(RuntimeNoDlb, HonorsSpeedDifferences) {
  auto params = base_params(2);
  params.speeds = {1.0, 4.0};
  const auto app = make_uniform(20, 100e3, 0.0);
  const auto r = run_app(params, app, config_for(Strategy::kNoDlb));
  // Slow proc: 10 x 0.1 s = 1 s; fast proc: 0.25 s.  Makespan 1 s.
  EXPECT_NEAR(r.exec_seconds, 1.0, 1e-6);
}

class RuntimeAllStrategies : public ::testing::TestWithParam<Strategy> {};

TEST_P(RuntimeAllStrategies, CompletesAndConservesIterationsDedicated) {
  const auto app = make_uniform(64, 20e3, 100.0);
  const auto r = run_app(base_params(4), app, config_for(GetParam()));
  EXPECT_EQ(executed_total(r), 64);
  EXPECT_GT(r.exec_seconds, 0.0);
}

TEST_P(RuntimeAllStrategies, CompletesUnderExternalLoad) {
  const auto app = make_uniform(64, 50e3, 100.0);
  auto params = base_params(4, /*load=*/true);
  params.load.persistence = dlb::sim::from_seconds(0.5);
  const auto r = run_app(params, app, config_for(GetParam()));
  EXPECT_EQ(executed_total(r), 64);
}

TEST_P(RuntimeAllStrategies, DeterministicAcrossRuns) {
  const auto app = make_uniform(48, 40e3, 64.0);
  auto params = base_params(4, /*load=*/true, /*seed=*/7);
  const auto r1 = run_app(params, app, config_for(GetParam()));
  const auto r2 = run_app(params, app, config_for(GetParam()));
  EXPECT_DOUBLE_EQ(r1.exec_seconds, r2.exec_seconds);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.total_syncs(), r2.total_syncs());
}

TEST_P(RuntimeAllStrategies, SingleProcessorDegenerates) {
  const auto app = make_uniform(10, 10e3, 0.0);
  const auto r = run_app(base_params(1), app, config_for(GetParam()));
  EXPECT_EQ(executed_total(r), 10);
  // Compute takes exactly 0.1 s; the DLB strategies add one terminal
  // synchronization (profile + distribution calculation) on top.
  EXPECT_GE(r.loops[0].finish_per_proc[0], 0.1 - 1e-9);
  EXPECT_LT(r.loops[0].finish_per_proc[0], 0.25);
}

TEST_P(RuntimeAllStrategies, FewerIterationsThanProcessors) {
  const auto app = make_uniform(3, 10e3, 0.0);
  const auto r = run_app(base_params(8), app, config_for(GetParam()));
  EXPECT_EQ(executed_total(r), 3);
}

TEST_P(RuntimeAllStrategies, EmptyLoopFinishesImmediately) {
  const auto app = make_uniform(0, 10e3, 0.0);
  const auto r = run_app(base_params(4), app, config_for(GetParam()));
  EXPECT_EQ(executed_total(r), 0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, RuntimeAllStrategies, ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           return std::string(dlb::core::strategy_name(info.param));
                         });

class RuntimeDlbStrategies : public ::testing::TestWithParam<Strategy> {};

TEST_P(RuntimeDlbStrategies, MovesWorkTowardUnloadedProcessors) {
  // Processor 0 is 10x slower (via speed): the balancers should migrate most
  // iterations away from it.
  auto params = base_params(4);
  params.speeds = {0.1, 1.0, 1.0, 1.0};
  const auto app = make_uniform(80, 30e3, 64.0);
  const auto r = run_app(params, app, config_for(GetParam()));
  EXPECT_GT(r.total_redistributions(), 0);
  EXPECT_GT(r.total_iterations_moved(), 0);
  const auto& executed = r.loops[0].executed_per_proc;
  EXPECT_LT(executed[0], executed[1]);
  EXPECT_LT(executed[0], executed[2]);
}

TEST_P(RuntimeDlbStrategies, BeatsNoDlbUnderSkewedSpeeds) {
  auto params = base_params(4);
  params.speeds = {0.2, 1.0, 1.0, 1.0};
  const auto app = make_uniform(80, 50e3, 16.0);
  const auto no_dlb = run_app(params, app, config_for(Strategy::kNoDlb));
  const auto dlb = run_app(params, app, config_for(GetParam()));
  EXPECT_LT(dlb.exec_seconds, no_dlb.exec_seconds);
}

TEST_P(RuntimeDlbStrategies, RecordsSyncEvents) {
  auto params = base_params(4);
  params.speeds = {0.25, 1.0, 1.0, 1.0};
  const auto app = make_uniform(60, 30e3, 16.0);
  const auto r = run_app(params, app, config_for(GetParam()));
  EXPECT_GT(r.total_syncs(), 0);
  for (const auto& e : r.loops[0].events) {
    EXPECT_GE(e.at_seconds, 0.0);
    EXPECT_GE(e.total_remaining, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dlb, RuntimeDlbStrategies,
                         ::testing::Values(Strategy::kGCDLB, Strategy::kGDDLB, Strategy::kLCDLB,
                                           Strategy::kLDDLB),
                         [](const auto& info) {
                           return std::string(dlb::core::strategy_name(info.param));
                         });

TEST(RuntimeLocal, NoInterGroupMovement) {
  // Two groups of 2.  All movement must stay within a group: the iterations
  // executed by each group equal the group's initial block allocation.
  auto params = base_params(4);
  params.speeds = {0.2, 1.0, 1.0, 1.0};
  const auto app = make_uniform(80, 30e3, 16.0);
  DlbConfig config = config_for(Strategy::kLDDLB);
  config.group_size = 2;
  const auto r = run_app(params, app, config);
  const auto& executed = r.loops[0].executed_per_proc;
  EXPECT_EQ(executed[0] + executed[1], 40);  // group {0,1} owned [0,40)
  EXPECT_EQ(executed[2] + executed[3], 40);
}

TEST(RuntimeLocal, GroupSizeEqualsProcsBehavesGlobally) {
  auto params = base_params(4);
  params.speeds = {0.2, 1.0, 1.0, 1.0};
  const auto app = make_uniform(60, 30e3, 16.0);
  DlbConfig local = config_for(Strategy::kLDDLB);
  local.group_size = 4;
  const auto r_local = run_app(params, app, local);
  const auto r_global = run_app(params, app, config_for(Strategy::kGDDLB));
  EXPECT_DOUBLE_EQ(r_local.exec_seconds, r_global.exec_seconds);
}

TEST(Runtime, AutoStrategyRejected) {
  dlb::cluster::Cluster cluster(base_params(2));
  EXPECT_THROW(Runtime(cluster, make_uniform(8, 1e3, 0.0), config_for(Strategy::kAuto)),
               std::invalid_argument);
}

TEST(Runtime, RunIsOneShot) {
  dlb::cluster::Cluster cluster(base_params(2));
  Runtime runtime(cluster, make_uniform(8, 1e3, 0.0), config_for(Strategy::kNoDlb));
  (void)runtime.run();
  EXPECT_THROW((void)runtime.run(), std::logic_error);
}

TEST(Runtime, MxmAppRuns) {
  const auto app = make_mxm({64, 32, 32});
  auto params = base_params(4, /*load=*/true);
  const auto r = run_app(params, app, config_for(Strategy::kGDDLB));
  EXPECT_EQ(executed_total(r), 64);
  EXPECT_EQ(r.app_name, "MXM");
}

TEST(Runtime, TrfdTwoLoopsAndTransposeRun) {
  const auto app = make_trfd({10});  // N = 55, loop2 = 28 folded iterations
  auto params = base_params(4, /*load=*/true);
  const auto r = run_app(params, app, config_for(Strategy::kLDDLB));
  ASSERT_EQ(r.loops.size(), 2u);
  EXPECT_EQ(executed_total(r), 55 + 28);
  // Transpose phase pushes loop-2 start past loop-1 finish.
  EXPECT_GT(r.loops[1].start_seconds, r.loops[0].finish_seconds);
}

TEST(Runtime, SingleLoopRunIsolatesLoop) {
  const auto app = make_trfd({10});
  dlb::cluster::Cluster cluster(base_params(4));
  Runtime runtime(cluster, app, config_for(Strategy::kGDDLB));
  const auto r = runtime.run_single_loop(1);
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_EQ(r.loops[0].loop_name, "trfd-l2");
}

TEST(Runtime, DriveLoopOnAFreshClusterMatchesRunSingleLoop) {
  // The service sim backend runs each job as LoopContext::make + drive_loop.
  // At virtual time zero on an identically seeded cluster that must be
  // Runtime::run_single_loop exactly: same protocol, engine and load.
  const auto app = make_uniform(48, 20e3, 32.0);
  const auto params = base_params(4, /*load=*/true, 77);

  dlb::cluster::Cluster one_shot(params);
  Runtime runtime(one_shot, app, config_for(Strategy::kGDDLB));
  const auto reference = runtime.run_single_loop(0);
  ASSERT_EQ(reference.loops.size(), 1u);

  dlb::cluster::Cluster fresh(params);
  auto ctx = dlb::core::LoopContext::make(app.loops[0], config_for(Strategy::kGDDLB), fresh);
  const auto stats = dlb::core::drive_loop(ctx);

  EXPECT_DOUBLE_EQ(stats.finish_seconds, reference.exec_seconds);
  EXPECT_EQ(stats.syncs, reference.loops[0].syncs);
  EXPECT_EQ(stats.iterations_moved, reference.loops[0].iterations_moved);
  EXPECT_EQ(stats.executed_per_proc, reference.loops[0].executed_per_proc);
}

TEST(Runtime, NoDlbIterationHoldsTwoFramesPerStation) {
  // The hot path's frame depth: mid-iteration, a NoDLB slave of a loop
  // without intrinsic traffic holds its own frame and its station's compute
  // task, and nothing between them.
  constexpr int kProcs = 8;
  const auto app = make_uniform(4 * kProcs, 100e3, 32.0);  // 0.1 s iterations
  dlb::cluster::Cluster cluster(base_params(kProcs));
  auto ctx = dlb::core::LoopContext::make(app.loops[0], config_for(Strategy::kNoDlb), cluster);
  const std::uint64_t before = FrameArena::stats().live;
  std::uint64_t during = 0;
  cluster.engine().schedule_at(dlb::sim::from_seconds(0.05),
                               [live = &during] { *live = FrameArena::stats().live; });
  const auto stats = dlb::core::drive_loop(ctx);
  EXPECT_EQ(during - before, 2u * kProcs);
  EXPECT_EQ(stats.executed_per_proc, std::vector<std::int64_t>(kProcs, 4));
}

TEST(Runtime, DriveLoopConservesWorkAndAdvancesTheClock) {
  // Back-to-back loops on one persistent cluster, as the service sim backend
  // runs its jobs: each executes every iteration exactly once and leaves the
  // engine parked at its finish, and the strategy may change loop to loop.
  const auto app = make_uniform(48, 20e3, 32.0);
  dlb::cluster::Cluster cluster(base_params(4, /*load=*/true));
  double previous_finish = 0.0;
  for (const Strategy s : {Strategy::kGDDLB, Strategy::kLDDLB}) {
    auto ctx = dlb::core::LoopContext::make(app.loops[0], config_for(s), cluster);
    const auto stats = dlb::core::drive_loop(ctx);
    EXPECT_EQ(std::accumulate(stats.executed_per_proc.begin(), stats.executed_per_proc.end(),
                              std::int64_t{0}),
              app.loops[0].iterations);
    EXPECT_GT(stats.finish_seconds, previous_finish);
    EXPECT_EQ(cluster.engine().now(), dlb::sim::from_seconds(stats.finish_seconds));
    previous_finish = stats.finish_seconds;
  }
}

TEST(ProtocolTags, OneTableNamesEveryTag) {
  namespace core = dlb::core;
  const int table[] = {core::kTagInterrupt, core::kTagOutcome,   core::kTagWork,
                       core::kTagAck,       core::kTagHeartbeat, core::kTagProfile,
                       core::kTagPhaseData, core::kTagPhaseScatter, core::kTagIntrinsic};
  std::set<std::string> names;
  for (const int tag : table) {
    const std::string name = core::tag_name(tag);
    EXPECT_FALSE(name.empty()) << "tag " << tag;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(table));  // distinct
  // The FT slave's and coordinator's one-range receives.
  EXPECT_EQ(core::kTagHeartbeat - core::kTagInterrupt, 4);
  EXPECT_EQ(core::kTagProfile - core::kTagInterrupt, 5);
  for (const int group : {0, 1, 7, 4095}) {
    EXPECT_GT(core::central_profile_tag(group), core::kTagIntrinsic);
    EXPECT_STREQ(core::tag_name(core::central_profile_tag(group)), "profile");
  }
  EXPECT_STREQ(core::tag_name(50), "");  // the trace exporter prints "tag 50"
  EXPECT_STREQ(core::tag_name(core::kTagIntrinsic + 1), "");
}

TEST(Runtime, DifferentSeedsDifferentTimes) {
  const auto app = make_uniform(64, 50e3, 16.0);
  const auto r1 = run_app(base_params(4, true, 1), app, config_for(Strategy::kGDDLB));
  const auto r2 = run_app(base_params(4, true, 2), app, config_for(Strategy::kGDDLB));
  EXPECT_NE(r1.exec_seconds, r2.exec_seconds);
}

}  // namespace
