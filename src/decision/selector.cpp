#include "decision/selector.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/runtime.hpp"
#include "support/ranking.hpp"

namespace dlb::decision {

namespace {

/// Ranks the selection's predictions best-first and commits to the best.
void rank_and_choose(Selection& selection) {
  std::vector<double> costs;
  for (const auto& p : selection.predictions) costs.push_back(p.makespan_seconds);
  selection.predicted_order = support::rank_by_cost(costs);
  selection.chosen = core::ranked_strategy(selection.predicted_order.front());
}

}  // namespace

Selector::Selector(cluster::ClusterParams cluster, net::CollectiveCosts costs,
                   core::DlbConfig config)
    : cluster_(std::move(cluster)), costs_(std::move(costs)), config_(config) {
  config_.validate(cluster_.procs);
}

Selection Selector::select(const core::LoopDescriptor& loop) const {
  model::PredictorInputs inputs;
  inputs.cluster = cluster_;
  inputs.loop = &loop;
  inputs.costs = costs_;
  inputs.config = config_;
  const model::Predictor predictor(inputs);

  Selection selection;
  selection.predictions = predictor.predict_ranked();
  rank_and_choose(selection);
  return selection;
}

Selection Selector::select(const core::AppDescriptor& app) const {
  app.validate();
  Selection selection;
  selection.predictions.resize(static_cast<std::size_t>(core::kRankedStrategyCount));
  for (int id = 0; id < core::kRankedStrategyCount; ++id) {
    auto& total = selection.predictions[static_cast<std::size_t>(id)];
    total.strategy = core::ranked_strategy(id);
  }
  for (const auto& loop : app.loops) {
    const auto per_loop = select(loop);
    for (int id = 0; id < core::kRankedStrategyCount; ++id) {
      const auto& p = per_loop.predictions[static_cast<std::size_t>(id)];
      auto& total = selection.predictions[static_cast<std::size_t>(id)];
      total.makespan_seconds += p.makespan_seconds;
      total.syncs += p.syncs;
      total.redistributions += p.redistributions;
      total.iterations_moved += p.iterations_moved;
      total.overhead_seconds += p.overhead_seconds;
    }
  }
  rank_and_choose(selection);
  return selection;
}

AutoRun run_auto(const cluster::ClusterParams& params, const core::AppDescriptor& app,
                 const core::DlbConfig& config, const net::CollectiveCosts& costs) {
  const Selector selector(params, costs, config);
  AutoRun out;
  out.selection = selector.select(app);
  core::DlbConfig chosen = config;
  chosen.strategy = out.selection.chosen;
  out.result = core::run_app(params, app, chosen);
  return out;
}

}  // namespace dlb::decision
