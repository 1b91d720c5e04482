#include "decision/online.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb::decision {

void HysteresisConfig::validate() const {
  if (!(margin >= 0.0) || !std::isfinite(margin)) {
    throw std::invalid_argument("HysteresisConfig: margin must be finite and >= 0");
  }
  if (k < 1) throw std::invalid_argument("HysteresisConfig: k must be >= 1");
}

OnlineSelector::OnlineSelector(HysteresisConfig config) : config_(config) {
  config_.validate();
}

core::Strategy OnlineSelector::decide(std::span<const double> ranked_costs) {
  if (ranked_costs.size() != static_cast<std::size_t>(core::kRankedStrategyCount)) {
    throw std::invalid_argument("OnlineSelector: expected one cost per ranked strategy");
  }
  for (const double c : ranked_costs) {
    if (!(c > 0.0) || !std::isfinite(c)) {
      throw std::invalid_argument("OnlineSelector: costs must be positive and finite");
    }
  }

  int best = 0;
  for (int i = 1; i < core::kRankedStrategyCount; ++i) {
    if (ranked_costs[static_cast<std::size_t>(i)] < ranked_costs[static_cast<std::size_t>(best)]) {
      best = i;
    }
  }

  if (!committed_) {
    committed_ = true;
    current_ = core::ranked_strategy(best);
    return current_;
  }

  const int incumbent = core::ranked_id(current_);
  if (best == incumbent) {
    // The incumbent is (weakly) the best choice; any pending streak dies.
    challenger_id_ = -1;
    streak_ = 0;
    return current_;
  }

  const double cost_incumbent = ranked_costs[static_cast<std::size_t>(incumbent)];
  const double cost_challenger = ranked_costs[static_cast<std::size_t>(best)];
  const double win = (cost_incumbent - cost_challenger) / cost_incumbent;
  if (win <= config_.margin) {
    // Not a convincing enough win: the challenger must *exceed* the margin,
    // so equal costs (win == 0) can never start a streak and the selector
    // never flaps between equally priced strategies.
    challenger_id_ = -1;
    streak_ = 0;
    return current_;
  }

  if (best == challenger_id_) {
    ++streak_;
  } else {
    challenger_id_ = best;
    streak_ = 1;
  }
  if (streak_ >= config_.k) {
    current_ = core::ranked_strategy(best);
    challenger_id_ = -1;
    streak_ = 0;
    ++switches_;
  }
  return current_;
}

}  // namespace dlb::decision
