#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/types.hpp"
#include "net/characterize.hpp"

namespace dlb::model {

/// Predicted behaviour of one strategy on one loop (§4.2's total-cost
/// derivation, solved numerically).
struct StrategyPrediction {
  core::Strategy strategy = core::Strategy::kNoDlb;
  double makespan_seconds = 0.0;
  int syncs = 0;
  int redistributions = 0;
  std::int64_t iterations_moved = 0;
  double overhead_seconds = 0.0;  // sum of sigma + eta + delta + iota (+ delay)
};

/// Inputs of the modeling process (§4.1): processor, program, network, and
/// external-load parameters.  The load realization is rebuilt from the
/// cluster parameters by cluster::station_load, so the model sees the *same*
/// discrete random load the run-time system experiences — exactly the
/// paper's §4.3 setup where the load function observed at run time is
/// plugged into the model.
struct PredictorInputs {
  cluster::ClusterParams cluster;
  const core::LoopDescriptor* loop = nullptr;
  net::CollectiveCosts costs;  // fitted sigma(P) from characterization
  core::DlbConfig config;      // thresholds, margins, eta
};

/// Numerically solves the paper's recurrence system (Eqs. 1-5 and the group
/// extension with the LCDLB delay factor):
///
///   - between sync points every processor executes iterations at its
///     load-modulated effective speed (Eq. 1 for uniform loops, Eq. 2
///     non-uniform — handled exactly by walking the per-iteration work),
///   - the first finisher triggers a synchronization; profiles are the
///     iterations/second since the last sync (§3.2),
///   - the *same* decision pipeline as the run-time library (threshold,
///     10% profitability, Eq. 3 distribution, greedy transfer plan) decides
///     the redistribution,
///   - each sync adds sigma(K) + eta; a redistribution adds
///     delta(j) = nu(j) L + phi(j) DC / B (Eq. 5); centralized schemes add
///     the instruction cost iota(j) = nu(j) L and, for LCDLB, the delay
///     factor from queueing at the single central balancer.
///
/// The termination condition Gamma(tau) = 0 (Eq. 4) yields the predicted
/// makespan.
class Predictor {
 public:
  explicit Predictor(PredictorInputs inputs);

  /// Predicts one strategy (kNoDlb and the four DLB strategies).
  [[nodiscard]] StrategyPrediction predict(core::Strategy strategy) const;

  /// Predicts the four ranked strategies (GC, GD, LC, LD), in ranked-id
  /// order (see core::ranked_strategy).
  [[nodiscard]] std::vector<StrategyPrediction> predict_ranked() const;

 private:
  PredictorInputs inputs_;
  /// Effective work of each iteration in ops, IC term included, and its
  /// mean: computed once, read by every prediction.
  std::vector<double> work_;
  double mean_ops_ = 0.0;
};

}  // namespace dlb::model
