#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"

namespace dlb::decision {

/// Hysteresis rule for online re-customization.  A challenger strategy
/// replaces the incumbent only when its predicted relative win
///
///   win = (cost(incumbent) - cost(challenger)) / cost(incumbent)
///
/// exceeds `margin` at `k` consecutive decision points.  Equal predicted
/// costs give win = 0, which never exceeds a non-negative margin — so two
/// strategies with identical cost can never make the selector flap.
struct HysteresisConfig {
  double margin = 0.05;  // relative predicted win required to switch
  int k = 3;             // consecutive decisions the win must persist

  void validate() const;
};

/// Online re-customizing selector: where `decision::Selector` commits one
/// strategy per run (§4.3), the online selector re-ranks the four ranked
/// strategies at every decision point (service mode: every job admission)
/// and switches with hysteresis.  Pure and deterministic: the decision is a
/// function of the incumbent, the streak counter and the cost vector —
/// no clocks, no ambient randomness — so replaying the same cost stream
/// reproduces the same switch sequence on any thread.
class OnlineSelector {
 public:
  explicit OnlineSelector(HysteresisConfig config);

  /// One decision point.  `ranked_costs[i]` is the predicted cost (makespan
  /// seconds) of `core::ranked_strategy(i)`; all costs must be positive and
  /// finite.  The first call commits the cheapest strategy outright (the
  /// paper's commit at first observation); later calls apply the hysteresis
  /// rule.  Ties break toward the lowest ranked id.
  core::Strategy decide(std::span<const double> ranked_costs);

  [[nodiscard]] core::Strategy current() const noexcept { return current_; }
  [[nodiscard]] std::uint64_t switches() const noexcept { return switches_; }

 private:
  HysteresisConfig config_;
  core::Strategy current_ = core::Strategy::kNoDlb;  // unset until first decide()
  bool committed_ = false;
  int challenger_id_ = -1;  // ranked id of the current streak's challenger
  int streak_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace dlb::decision
