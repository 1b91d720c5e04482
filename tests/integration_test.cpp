// End-to-end integrations: the full paper pipeline (annotated source ->
// compiled descriptor -> characterization -> model -> commit -> run) and
// the LCDLB delay factor.

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "codegen/compile.hpp"
#include "core/runtime.hpp"
#include "decision/selector.hpp"
#include "model/predictor.hpp"
#include "net/characterize.hpp"

namespace {

using dlb::cluster::ClusterParams;
using dlb::core::DlbConfig;
using dlb::core::Strategy;

const dlb::net::CollectiveCosts& costs() {
  static const auto value = dlb::net::characterize(dlb::net::EthernetParams{}, 16).costs;
  return value;
}

ClusterParams params_for(int procs, std::uint64_t seed = 42) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.seed = seed;
  return p;
}

TEST(Integration, AnnotatedSourceToSelectedRun) {
  const char* source = R"(#pragma dlb array A(N, N) distribute(BLOCK, WHOLE)
#pragma dlb balance work(N * 300) comm(N * 8)
for i = 0, N {
  row_update(A, i);
}
)";
  const auto app = dlb::codegen::compile_app(source, {{"N", 96.0}});
  EXPECT_EQ(app.loops[0].iterations, 96);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(0), 96.0 * 300.0);

  const auto params = params_for(4, 5);
  const auto run = dlb::decision::run_auto(params, app, DlbConfig{}, costs());

  // The committed strategy actually ran and completed the loop.
  std::int64_t executed = 0;
  for (const auto n : run.result.loops[0].executed_per_proc) executed += n;
  EXPECT_EQ(executed, 96);
  EXPECT_EQ(run.result.strategy_name,
            dlb::core::strategy_name(run.selection.chosen));

  // And it is within 10 % of the best measured strategy.
  double best = 1e300;
  double chosen = 0.0;
  for (int id = 0; id < dlb::core::kRankedStrategyCount; ++id) {
    DlbConfig config;
    config.strategy = dlb::core::ranked_strategy(id);
    const auto r = dlb::core::run_app(params, app, config);
    best = std::min(best, r.exec_seconds);
    if (config.strategy == run.selection.chosen) chosen = r.exec_seconds;
  }
  EXPECT_LE(chosen, best * 1.10);
}

TEST(Integration, LcdlbDelayFactorPenalizesSimultaneousGroups) {
  // Dedicated homogeneous cluster, uniform loop: every processor finishes at
  // the same instant, so all eight two-member groups hit the single central
  // balancer simultaneously — the worst case for the LCDLB delay factor
  // g(j).  The replicated balancers of LDDLB have no queue at all.
  const auto app = dlb::apps::make_uniform(128, 40e3, 64.0);
  auto params = params_for(16, 9);
  params.load.max_load = 0;
  dlb::model::PredictorInputs in;
  in.cluster = params;
  in.loop = &app.loops[0];
  in.costs = costs();
  in.config.group_size = 2;
  const dlb::model::Predictor predictor(in);
  const auto lc = predictor.predict(Strategy::kLCDLB);
  const auto ld = predictor.predict(Strategy::kLDDLB);
  EXPECT_GT(lc.makespan_seconds, ld.makespan_seconds);
}

TEST(Integration, LcdlbDelayMeasurableInSimulator) {
  const auto app = dlb::apps::make_uniform(128, 40e3, 64.0);
  auto params = params_for(16, 9);
  params.load.max_load = 0;
  DlbConfig lc;
  lc.strategy = Strategy::kLCDLB;
  lc.group_size = 2;
  DlbConfig ld = lc;
  ld.strategy = Strategy::kLDDLB;
  const auto r_lc = dlb::core::run_app(params, app, lc);
  const auto r_ld = dlb::core::run_app(params, app, ld);
  EXPECT_GT(r_lc.exec_seconds, r_ld.exec_seconds);
}

TEST(Integration, StatsSurviveJsonRoundTripKeys) {
  // The exported JSON of a centralized run carries the balancer's event log.
  const auto app = dlb::apps::make_uniform(64, 30e3, 64.0);
  DlbConfig config;
  config.strategy = Strategy::kGCDLB;
  const auto r = dlb::core::run_app(params_for(4, 2), app, config);
  EXPECT_GT(r.loops[0].syncs, 0);
  for (const auto& e : r.loops[0].events) {
    EXPECT_GE(e.initiator, 0);  // the centralized balancer knows who triggered
  }
}

}  // namespace
