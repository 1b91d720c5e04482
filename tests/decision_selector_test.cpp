#include "decision/selector.hpp"

#include <gtest/gtest.h>

#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "core/runtime.hpp"
#include "fault/plan.hpp"
#include "net/characterize.hpp"

namespace {

using dlb::cluster::ClusterParams;
using dlb::core::DlbConfig;
using dlb::core::Strategy;
using dlb::decision::run_auto;
using dlb::decision::Selector;
using dlb::net::characterize;
using dlb::net::CollectiveCosts;

const CollectiveCosts& costs() {
  static const CollectiveCosts value = characterize(dlb::net::EthernetParams{}, 16).costs;
  return value;
}

ClusterParams params_for(int procs, std::uint64_t seed = 42) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.seed = seed;
  return p;
}

TEST(Selector, SelectsARankedStrategy) {
  const auto app = dlb::apps::make_uniform(64, 50e3, 64.0);
  const Selector selector(params_for(4), costs(), DlbConfig{});
  const auto selection = selector.select(app.loops[0]);
  EXPECT_EQ(selection.predictions.size(), 4u);
  EXPECT_EQ(selection.predicted_order.size(), 4u);
  EXPECT_EQ(selection.chosen,
            dlb::core::ranked_strategy(selection.predicted_order.front()));
}

TEST(Selector, AppSelectionAggregatesLoops) {
  const auto app = dlb::apps::make_trfd({8});
  const Selector selector(params_for(4), costs(), DlbConfig{});
  const auto selection = selector.select(app);
  // Aggregate makespan across two loops exceeds the larger single loop.
  const auto l1 = selector.select(app.loops[0]);
  const auto l2 = selector.select(app.loops[1]);
  for (int id = 0; id < 4; ++id) {
    const auto i = static_cast<std::size_t>(id);
    EXPECT_NEAR(selection.predictions[i].makespan_seconds,
                l1.predictions[i].makespan_seconds + l2.predictions[i].makespan_seconds, 1e-9);
  }
}

TEST(Selector, ChoiceIsNearOptimalInSimulation) {
  // The committed strategy's measured time must be within a few percent of
  // the best measured strategy (the paper's claim: the model customizes
  // well, even when the exact ranking has near-ties).
  const auto app = dlb::apps::make_mxm({128, 64, 64});
  const auto params = params_for(4, 31);
  const Selector selector(params, costs(), DlbConfig{});
  const auto selection = selector.select(app);

  double best = 1e300;
  double chosen_time = 0.0;
  for (int id = 0; id < 4; ++id) {
    DlbConfig config;
    config.strategy = dlb::core::ranked_strategy(id);
    const auto r = dlb::core::run_app(params, app, config);
    best = std::min(best, r.exec_seconds);
    if (config.strategy == selection.chosen) chosen_time = r.exec_seconds;
  }
  EXPECT_LE(chosen_time, best * 1.05);
}

TEST(RunAuto, RunsUnderChosenStrategy) {
  const auto app = dlb::apps::make_uniform(48, 40e3, 64.0);
  const auto result = run_auto(params_for(4), app, DlbConfig{}, costs());
  EXPECT_EQ(result.result.strategy_name,
            dlb::core::strategy_name(result.selection.chosen));
  EXPECT_GT(result.result.exec_seconds, 0.0);
}

TEST(Selector, PredictionsAreFaultBlind) {
  // The §5 model prices synchronization and movement, not crashes: arming a
  // plan must leave the predicted ranking untouched.
  const auto app = dlb::apps::make_uniform(64, 50e3, 64.0);
  DlbConfig armed;
  armed.faults = dlb::fault::FaultPlan::preset("crash-half");
  const auto plain = Selector(params_for(4), costs(), DlbConfig{}).select(app);
  const auto under_faults = Selector(params_for(4), costs(), armed).select(app);
  EXPECT_EQ(plain.predicted_order, under_faults.predicted_order);
  EXPECT_EQ(plain.chosen, under_faults.chosen);
  for (int id = 0; id < 4; ++id) {
    const auto i = static_cast<std::size_t>(id);
    EXPECT_DOUBLE_EQ(plain.predictions[i].makespan_seconds,
                     under_faults.predictions[i].makespan_seconds);
  }
}

TEST(RunAuto, ArmedPlanFlowsThroughToTheRun) {
  // Selection happens on the failure-free model; the chosen strategy then
  // executes its fault-tolerant variant and survives the crash.
  const auto app = dlb::apps::make_uniform(64, 25e3, 8.0);
  DlbConfig config;
  config.faults = dlb::fault::FaultPlan::preset("crash-half");
  const auto result = run_auto(params_for(4), app, config, costs());
  EXPECT_EQ(result.result.strategy_name,
            dlb::core::strategy_name(result.selection.chosen));
  EXPECT_EQ(result.result.faults.crashes, 1);
  EXPECT_GT(result.result.exec_seconds, 0.0);
}

TEST(Selector, RejectsInvalidConfig) {
  DlbConfig bad;
  bad.group_size = 99;
  EXPECT_THROW(Selector(params_for(4), costs(), bad), std::invalid_argument);
}

}  // namespace
