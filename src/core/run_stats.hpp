#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace dlb::core {

/// Record of one synchronization round (the "DLB statistics" the paper's
/// master collects: number of redistributions, synchronizations, work moved).
struct SyncEvent {
  double at_seconds = 0.0;
  int round = 0;
  int group = 0;          // 0 for global strategies
  int initiator = 0;      // the processor whose interrupt triggered the round
  std::int64_t total_remaining = 0;
  std::int64_t iterations_moved = 0;
  int transfer_messages = 0;  // nu(j)
  bool redistributed = false;
};

/// Statistics for one load-balanced loop.
struct LoopRunStats {
  std::string loop_name;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  int syncs = 0;
  int redistributions = 0;
  std::int64_t iterations_moved = 0;
  std::vector<SyncEvent> events;
  /// Iterations each processor executed.
  std::vector<std::int64_t> executed_per_proc;
  /// Virtual time each processor finished its part of this loop.
  std::vector<double> finish_per_proc;

  [[nodiscard]] double elapsed_seconds() const { return finish_seconds - start_seconds; }
};

/// Statistics for a whole application run.
struct RunResult {
  std::string app_name;
  std::string strategy_name;
  double exec_seconds = 0.0;  // makespan of the whole run
  std::vector<LoopRunStats> loops;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Observability recorder (only when DlbConfig::observe or record_trace):
  /// protocol phase spans, per-frame network records, instant marks, counter
  /// samples, and with record_trace the per-processor activity segments.
  std::shared_ptr<obs::Recorder> obs;
  /// Canonical metrics snapshot of the recorder (empty without one).
  obs::MetricsSnapshot metrics;
  /// Fault counters (all zero when the plan is disarmed).
  fault::FaultStats faults;

  [[nodiscard]] int total_syncs() const;
  [[nodiscard]] int total_redistributions() const;
  [[nodiscard]] std::int64_t total_iterations_moved() const;
};

}  // namespace dlb::core
