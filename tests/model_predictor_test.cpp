#include "model/predictor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "net/characterize.hpp"
#include "support/ranking.hpp"

namespace {

using dlb::cluster::ClusterParams;
using dlb::core::DlbConfig;
using dlb::core::Strategy;
using dlb::model::Predictor;
using dlb::model::PredictorInputs;
using dlb::net::characterize;
using dlb::net::CollectiveCosts;

const CollectiveCosts& costs() {
  static const CollectiveCosts value = characterize(dlb::net::EthernetParams{}, 16).costs;
  return value;
}

PredictorInputs inputs_for(const dlb::core::LoopDescriptor& loop, int procs, bool load,
                           std::uint64_t seed = 42) {
  PredictorInputs in;
  in.cluster.procs = procs;
  in.cluster.base_ops_per_sec = 1e6;
  if (!load) in.cluster.load.max_load = 0;  // dedicated machines
  in.cluster.seed = seed;
  in.loop = &loop;
  in.costs = costs();
  in.config = DlbConfig{};
  return in;
}

TEST(Predictor, NoDlbDedicatedIsExact) {
  const auto app = dlb::apps::make_uniform(40, 25e3, 0.0);
  const Predictor p(inputs_for(app.loops[0], 4, /*load=*/false));
  const auto pred = p.predict(Strategy::kNoDlb);
  EXPECT_NEAR(pred.makespan_seconds, 0.25, 1e-9);
  EXPECT_EQ(pred.syncs, 0);
}

TEST(Predictor, NoDlbMatchesSimulatorUnderLoad) {
  const auto app = dlb::apps::make_uniform(64, 50e3, 0.0);
  auto in = inputs_for(app.loops[0], 4, /*load=*/true, 7);
  const Predictor p(in);
  const auto pred = p.predict(Strategy::kNoDlb);

  DlbConfig config;
  config.strategy = Strategy::kNoDlb;
  const auto actual = dlb::core::run_app(in.cluster, app, config);
  EXPECT_NEAR(pred.makespan_seconds, actual.exec_seconds, actual.exec_seconds * 0.01);
}

TEST(Predictor, DlbStrategiesTerminate) {
  const auto app = dlb::apps::make_uniform(64, 50e3, 64.0);
  const Predictor p(inputs_for(app.loops[0], 4, /*load=*/true));
  for (const auto s :
       {Strategy::kGCDLB, Strategy::kGDDLB, Strategy::kLCDLB, Strategy::kLDDLB}) {
    const auto pred = p.predict(s);
    EXPECT_GT(pred.makespan_seconds, 0.0);
    EXPECT_GT(pred.syncs, 0);
    EXPECT_LT(pred.syncs, 200);
  }
}

TEST(Predictor, PredictsDlbBenefitUnderSkewedSpeeds) {
  const auto app = dlb::apps::make_uniform(80, 50e3, 16.0);
  auto in = inputs_for(app.loops[0], 4, /*load=*/false);
  in.cluster.speeds = {0.2, 1.0, 1.0, 1.0};
  const Predictor p(in);
  const auto no_dlb = p.predict(Strategy::kNoDlb);
  const auto gd = p.predict(Strategy::kGDDLB);
  EXPECT_LT(gd.makespan_seconds, no_dlb.makespan_seconds);
  EXPECT_GT(gd.iterations_moved, 0);
}

TEST(Predictor, MakespanTracksSimulatorAtPaperScale) {
  // The whole point of the model (§4.3): its absolute predictions must be
  // close enough that the predicted ordering is usable.  At paper-scale
  // work-to-sync ratios the model tracks the simulator to a few percent;
  // the unmodeled per-message micro-costs only matter for toy runs.
  const auto app = dlb::apps::make_mxm({200, 200, 200});
  auto in = inputs_for(app.loops[0], 4, /*load=*/true, 11);
  in.cluster.base_ops_per_sec = 1e6;
  const Predictor p(in);
  for (const auto s :
       {Strategy::kGCDLB, Strategy::kGDDLB, Strategy::kLCDLB, Strategy::kLDDLB}) {
    const auto pred = p.predict(s);
    DlbConfig config;
    config.strategy = s;
    const auto actual = dlb::core::run_app(in.cluster, app, config);
    // 15 %: the model deliberately omits per-message micro-costs and the
    // in-flight-iteration interrupt latency (the paper's model does too);
    // at full paper scale the residual shrinks to a few percent (see
    // EXPERIMENTS.md).
    EXPECT_NEAR(pred.makespan_seconds, actual.exec_seconds, actual.exec_seconds * 0.15)
        << dlb::core::strategy_name(s);
  }
}

TEST(Predictor, RankedPredictionsCoverAllFour) {
  const auto app = dlb::apps::make_uniform(64, 50e3, 64.0);
  const Predictor p(inputs_for(app.loops[0], 4, /*load=*/true));
  const auto ranked = p.predict_ranked();
  ASSERT_EQ(ranked.size(), 4u);
  std::vector<double> costs;
  for (std::size_t id = 0; id < ranked.size(); ++id) {
    EXPECT_EQ(ranked[id].strategy, dlb::core::ranked_strategy(static_cast<int>(id)));
    costs.push_back(ranked[id].makespan_seconds);
  }
  const auto order = dlb::support::rank_by_cost(costs);
  ASSERT_EQ(order.size(), 4u);
  // order is a permutation of 0..3, sorted by predicted makespan.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(ranked[static_cast<std::size_t>(order[i - 1])].makespan_seconds,
              ranked[static_cast<std::size_t>(order[i])].makespan_seconds);
  }
}

TEST(Predictor, DeterministicPredictions) {
  const auto app = dlb::apps::make_uniform(64, 50e3, 64.0);
  const Predictor p(inputs_for(app.loops[0], 8, /*load=*/true));
  const auto a = p.predict(Strategy::kLDDLB);
  const auto b = p.predict(Strategy::kLDDLB);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.syncs, b.syncs);
}

TEST(Predictor, LocalStrategiesUseGroups) {
  // With one immensely slow processor in group 0, the local strategies
  // cannot export its work to group 1: local makespan >= global makespan.
  const auto app = dlb::apps::make_uniform(80, 50e3, 16.0);
  auto in = inputs_for(app.loops[0], 4, /*load=*/false);
  in.cluster.speeds = {0.1, 0.1, 1.0, 1.0};
  in.config.group_size = 2;
  const Predictor p(in);
  const auto gd = p.predict(Strategy::kGDDLB);
  const auto ld = p.predict(Strategy::kLDDLB);
  EXPECT_GT(ld.makespan_seconds, gd.makespan_seconds);
}

TEST(Predictor, RejectsBadInputs) {
  PredictorInputs in;
  in.cluster.procs = 4;
  in.loop = nullptr;
  EXPECT_THROW(Predictor{in}, std::invalid_argument);

  const auto app = dlb::apps::make_uniform(10, 1e3, 0.0);
  const Predictor p(inputs_for(app.loops[0], 4, false));
  EXPECT_THROW((void)p.predict(Strategy::kAuto), std::invalid_argument);
}

TEST(Predictor, EmptyLoopIsFree) {
  const auto app = dlb::apps::make_uniform(0, 1e3, 0.0);
  const Predictor p(inputs_for(app.loops[0], 4, true));
  const auto pred = p.predict(Strategy::kGDDLB);
  EXPECT_LT(pred.makespan_seconds, 0.2);  // just the terminal sync
}

}  // namespace
