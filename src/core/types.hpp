#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"

namespace dlb::core {

/// The load balancing strategies of the paper (§3.5) plus the static no-DLB
/// baseline and the hybrid model-driven selector (§4.3).
enum class Strategy {
  kNoDlb,  // equal static partition, no run-time balancing
  kGCDLB,  // global centralized
  kGDDLB,  // global distributed
  kLCDLB,  // local centralized
  kLDDLB,  // local distributed
  kAuto,   // run to first sync, consult the model, commit (the customization)
};

[[nodiscard]] const char* strategy_name(Strategy s) noexcept;
/// Short labels used in the paper's tables: GC, GD, LC, LD.
[[nodiscard]] const char* strategy_label(Strategy s) noexcept;

/// The four ranked strategies, in the fixed id order used by the prediction
/// tables (0 = GC, 1 = GD, 2 = LC, 3 = LD).
inline constexpr int kRankedStrategyCount = 4;
[[nodiscard]] Strategy ranked_strategy(int id);
[[nodiscard]] int ranked_id(Strategy s);

/// One parallel loop to be load balanced (paper §4.1 program parameters).
struct LoopDescriptor {
  std::string name;
  /// Number of iterations I_i (after any compile-time transformation such as
  /// bitonic folding of triangular loops).
  std::int64_t iterations = 0;
  /// Work per iteration W_ij in basic operations on the base processor.
  /// Deterministic function of the iteration index.
  std::function<double(std::int64_t)> work_ops;
  /// Bytes that must travel per migrated iteration (DC times element size).
  double bytes_per_iteration = 0.0;
  /// Intrinsic communication IC (§4.1): bytes each iteration inherently
  /// exchanges with a neighbour regardless of load balancing (0 for MXM and
  /// TRFD, whose loops are doall).  The run-time slaves ship this to their
  /// ring neighbour after every iteration; the model folds it into the
  /// per-iteration time T(W, IC), as the paper does.
  double intrinsic_bytes_per_iteration = 0.0;

  [[nodiscard]] double ops_of(std::int64_t iteration) const;
  /// Total operations in the index range [lo, hi).
  [[nodiscard]] double ops_in_range(std::int64_t lo, std::int64_t hi) const;
  [[nodiscard]] double total_ops() const { return ops_in_range(0, iterations); }
  /// Mean per-iteration work (the model's T, in ops; divide by the base rate
  /// for seconds).
  [[nodiscard]] double mean_ops() const;

  void validate() const;
};

/// A sequential section between two parallel loops (TRFD's transpose): the
/// slaves ship their data to the master, the master computes, then scatters.
struct SequentialPhase {
  double gather_bytes_per_iteration = 0.0;  // per executed iteration of the previous loop
  double master_ops = 0.0;
  /// Total bytes re-scattered; the master ships an equal share to each of
  /// the other P-1 processors (its own share stays local).
  double scatter_bytes_total = 0.0;
};

/// An application: parallel loops separated by optional sequential phases
/// (phases.size() == loops.size() - 1 when present, else empty).
struct AppDescriptor {
  std::string name;
  std::vector<LoopDescriptor> loops;
  std::vector<SequentialPhase> phases;

  void validate() const;
};

/// Cost of one distribution calculation (the model's eta) in basic ops.
inline constexpr double kDecisionOps = 10e3;
/// Extra per-round cost paid by a *centralized* balancer collocated with a
/// compute slave (context switching, profile bookkeeping, sequential
/// instruction dispatch — the overheads §6.2 attributes to the centralized
/// schemes), in basic ops on the master.
inline constexpr double kBalancerOverheadOps = 10e3;

/// Knobs of the DLB run-time library.  Defaults are the paper's choices.
struct DlbConfig {
  Strategy strategy = Strategy::kGDDLB;
  /// Group size K for the local strategies (ignored by global ones, where
  /// K = P).  The paper's experiments use two K-block groups.
  int group_size = 0;  // 0 means P/2 rounded up (two groups)
  /// Work is moved only when the predicted completion time improves by at
  /// least this margin, movement cost excluded (§3.3-§3.4: 10 %).
  double profitability_margin = 0.10;
  /// phi(j) below this fraction of the remaining work means "almost balanced
  /// or almost done" — skip the move (§3.3).
  double move_threshold_fraction = 0.05;
  /// Give the recorder its activity log: per-processor compute, sync, move
  /// and recover segments (RunResult::obs).  Implies the recorder of
  /// `observe`; `observe` alone records no segment.
  bool record_trace = false;
  /// Arm the observability layer: protocol phase spans, per-frame network
  /// records, instant marks and the metrics registry (RunResult::obs /
  /// RunResult::metrics).  Disarmed (the default) leaves every instrumented
  /// site on a single predicted-null-pointer branch and records nothing —
  /// the fault layer's arming discipline.
  bool observe = false;
  /// Fault scenario.  A disarmed plan (the default) leaves every protocol on
  /// the fault-free code path; an armed plan switches the run to the
  /// fault-tolerant protocol variants.  kNoDlb cannot run armed: with no
  /// balancing rounds there is no mechanism to re-execute a dead
  /// workstation's iterations, so validate() rejects the combination.
  fault::FaultPlan faults;

  void validate(int procs) const;
  /// Effective group size for a cluster of `procs` processors.
  [[nodiscard]] int effective_group_size(int procs) const;
};

}  // namespace dlb::core
