#include "sched/work_stealing.hpp"

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "sched/task_queue.hpp"

namespace {

using dlb::sched::run_work_stealing;
using dlb::sched::StealPolicy;

dlb::cluster::ClusterParams params_for(int procs, bool load = false, std::uint64_t seed = 42) {
  dlb::cluster::ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  if (!load) p.load.max_load = 0;  // dedicated machines
  p.seed = seed;
  return p;
}

std::int64_t executed_total(const dlb::core::RunResult& r) {
  std::int64_t total = 0;
  for (const auto n : r.loops[0].executed_per_proc) total += n;
  return total;
}

class WorkStealingPolicies : public ::testing::TestWithParam<StealPolicy> {};

TEST_P(WorkStealingPolicies, CompletesAndConservesIterationsDedicated) {
  const auto app = dlb::apps::make_uniform(64, 20e3, 64.0);
  const auto r = run_work_stealing(params_for(4), app, GetParam());
  EXPECT_EQ(executed_total(r), 64);
  EXPECT_GT(r.exec_seconds, 0.0);
}

TEST_P(WorkStealingPolicies, CompletesUnderExternalLoad) {
  const auto app = dlb::apps::make_uniform(96, 40e3, 64.0);
  const auto r = run_work_stealing(params_for(8, /*load=*/true), app, GetParam());
  EXPECT_EQ(executed_total(r), 96);
}

TEST_P(WorkStealingPolicies, StealsFromSlowProcessor) {
  auto params = params_for(4);
  params.speeds = {0.1, 1.0, 1.0, 1.0};
  const auto app = dlb::apps::make_uniform(80, 40e3, 64.0);
  const auto r = run_work_stealing(params, app, GetParam());
  EXPECT_GT(r.loops[0].redistributions, 0);
  const auto& executed = r.loops[0].executed_per_proc;
  EXPECT_LT(executed[0], executed[1]);
}

TEST_P(WorkStealingPolicies, SingleProcessorNoStealing) {
  const auto app = dlb::apps::make_uniform(10, 10e3, 0.0);
  const auto r = run_work_stealing(params_for(1), app, GetParam());
  EXPECT_EQ(executed_total(r), 10);
  EXPECT_EQ(r.loops[0].syncs, 0);
}

TEST_P(WorkStealingPolicies, Deterministic) {
  const auto app = dlb::apps::make_uniform(64, 30e3, 64.0);
  const auto a = run_work_stealing(params_for(4, true, 9), app, GetParam());
  const auto b = run_work_stealing(params_for(4, true, 9), app, GetParam());
  EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
  EXPECT_EQ(a.loops[0].iterations_moved, b.loops[0].iterations_moved);
}

INSTANTIATE_TEST_SUITE_P(Policies, WorkStealingPolicies,
                         ::testing::Values(StealPolicy::kRandomHalf, StealPolicy::kAffinity),
                         [](const auto& info) {
                           return std::string(dlb::sched::steal_policy_name(info.param));
                         });

TEST(WorkStealing, BeatsStaticOnSkewedSpeeds) {
  auto params = params_for(4);
  params.speeds = {0.2, 1.0, 1.0, 1.0};
  const auto app = dlb::apps::make_uniform(80, 50e3, 16.0);
  const auto r = run_work_stealing(params, app, StealPolicy::kRandomHalf);
  // Static makespan: proc 0 holds 20 iterations at 0.2 speed: 20*0.05/0.2 = 5 s.
  EXPECT_LT(r.exec_seconds, 5.0);
}

TEST(WorkStealing, RejectsMultiLoopApps) {
  auto app = dlb::apps::make_uniform(8, 1e3, 0.0);
  app.loops.push_back(app.loops[0]);
  EXPECT_THROW((void)run_work_stealing(params_for(2), app, StealPolicy::kRandomHalf),
               std::invalid_argument);
}

TEST(WorkStealing, AffinityTargetsMostLoaded) {
  // Proc 3 is nearly stopped; affinity thieves must take from it since it
  // stays the most loaded queue.
  auto params = params_for(4);
  params.speeds = {1.0, 1.0, 1.0, 0.05};
  const auto app = dlb::apps::make_uniform(64, 40e3, 64.0);
  const auto r = run_work_stealing(params, app, StealPolicy::kAffinity);
  const auto& executed = r.loops[0].executed_per_proc;
  EXPECT_LT(executed[3], 16);  // lost most of its initial 16 iterations
}

}  // namespace
