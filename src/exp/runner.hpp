#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/run_stats.hpp"
#include "exp/grid.hpp"

namespace dlb::exp {

class Pool;

struct RunnerOptions {
  /// Pool width; 0 picks hardware concurrency, 1 degenerates to a serial
  /// run through the pool machinery.
  int threads = 0;
  /// Permute the submission order (results still merge canonically).  Used
  /// by the determinism tests to prove output is order-independent.
  bool shuffle_submission = false;
  std::uint64_t shuffle_seed = 1;
};

/// One executed cell: its resolved spec, the simulation result, and the
/// host wall-clock time the cell took (timing is reporting-only and never
/// part of deterministic output; a service set-up that Runner::run shares
/// across cells counts toward the first cell that reads it).
struct [[nodiscard]] CellResult {
  CellSpec spec;
  core::RunResult result;
  /// Present iff the cell ran in service mode: the SLA report of the open
  /// job stream (result then carries app/strategy names, horizon as
  /// exec_seconds, and network totals for the sim backend).
  std::optional<svc::ServiceReport> service;
  double wall_seconds = 0.0;
};

/// A completed sweep.  `cells` is in canonical grid order —
/// cells[i].spec.index == i — regardless of thread count, completion
/// order, or submission order, which is what makes sweep output
/// reproducible byte-for-byte.
struct [[nodiscard]] SweepResult {
  std::vector<CellResult> cells;
  double wall_seconds = 0.0;  // whole sweep, host clock
  int threads = 1;
  /// Sum of per-cell wall times: the serial-equivalent cost, so
  /// speedup = cell_wall_sum / wall_seconds.
  [[nodiscard]] double cell_wall_sum() const;
};

/// Executes every cell of a grid, each in its own fresh Cluster + Runtime
/// (engine instances are independent, so cells parallelize with no shared
/// mutable state), and merges results in canonical order.
class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Runs the grid on a pool.  A service grid's prediction tables are
  /// built first, one per distinct set-up key (every axis except arrival
  /// shape, offered load and strategy), and shared read-only by the cells
  /// that read them.
  [[nodiscard]] SweepResult run(const ExperimentGrid& grid) const;

  /// Reference implementation: a plain serial loop over the same cells
  /// with no pool involved, each service cell building its own set-up.
  /// The differential tests pin run() to this.
  [[nodiscard]] static SweepResult run_serial(const ExperimentGrid& grid);

  /// Executes a single cell (fresh cluster, one Runtime::run or
  /// run_single_loop; a service cell builds its own prediction table and
  /// runs svc::run_service).  Thread-safe for distinct cells.  When `pool` is
  /// non-null and the cell's cluster shards its engine (switched topology
  /// with engine_shards > 1), shard windows run on the pool — intra-cell
  /// parallelism sharing the same thread budget as cell-level parallelism.
  /// A null pool runs shard windows inline; either way the result is
  /// identical (the windowed engine is deterministic by construction).
  [[nodiscard]] static CellResult run_cell(const ExperimentGrid& grid, std::size_t index,
                                           Pool* pool = nullptr);

 private:
  RunnerOptions options_;
};

}  // namespace dlb::exp
