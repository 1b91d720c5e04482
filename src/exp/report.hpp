#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace dlb::exp {

struct ReportOptions {
  /// Include per-cell host wall time columns.  Off by default: the result
  /// columns are bit-deterministic across thread counts, timing is not.
  bool include_timing = false;
  /// Include the fault preset name and counters (crashes, revocations,
  /// rejoins, dropped_frames, retries, recoveries, iterations_recovered).
  /// Deterministic like the rest of the result columns — the whole fault
  /// schedule lives in virtual time.  dlb_sweep turns this on iff the
  /// grid's plan is armed, so unarmed output stays byte-identical.
  bool include_faults = false;
  /// Append one column per observability metric (the canonical union of
  /// metric names across all cells, sorted by name — histogram buckets
  /// flatten to `name.le_<bound>` keys).  Cells that lack a metric print 0.
  /// dlb_sweep turns this on with --metrics; it requires cells run with
  /// DlbConfig::observe, otherwise there are simply no metric columns.
  bool include_metrics = false;
  /// Insert a "topology" column after "procs".  dlb_sweep turns this on iff
  /// the grid's topology axis is non-default, so existing shared-only
  /// sweeps (the fig5-8 baselines) stay byte-identical.
  bool include_topology = false;
  /// Service-mode columns, mirroring the topology rule: "arrivals" and
  /// "rate" identity columns after topology, and the SLA block (jobs,
  /// rates, utilization, exact p50/p99/p999 sojourn, means, switches) after
  /// "bytes".  dlb_sweep turns this on iff the grid is armed, so every
  /// disarmed sweep stays byte-identical.
  bool include_service = false;
};

/// One CSV/JSON row per cell, canonical grid order.  Columns:
/// app, procs [, topology] [, arrivals, rate], strategy, tl_seconds,
/// max_load, seed, exec_seconds, syncs, redistributions, iterations_moved,
/// messages, bytes [, 11 service SLA columns] [, faults..8 fault columns]
/// [, wall_seconds].
/// exec_seconds is printed with round-trip (max_digits10) precision so
/// equality of bytes implies equality of doubles.
void write_csv(std::ostream& os, const SweepResult& sweep, const ReportOptions& options = {});
void write_json(std::ostream& os, const SweepResult& sweep, const ReportOptions& options = {});

/// Aggregated view: one row per grid point (all axes except seed), mean
/// exec/syncs/moved over the seed axis — the shape the paper's figures
/// plot.  When the strategy axis holds NoDLB (and the grid is not in
/// service mode), each point's mean time is also shown normalized to the
/// NoDLB point that differs from it only in strategy, as Figs. 5-8 plot it.
/// Written as an aligned table plus a trailing CSV block.
/// include_topology mirrors ReportOptions.
void write_summary(std::ostream& os, const SweepResult& sweep, int seeds,
                   bool include_topology = false, bool include_service = false);

/// One row of Tables 1-2: the measured and the model-predicted order of the
/// four ranked strategies (ids of core::ranked_strategy, best first) at one
/// grid point, with their agreement.
struct OrderRow {
  std::string app;
  int procs = 0;
  std::vector<int> actual;
  std::vector<int> predicted;
  double kendall_tau = 0.0;
  int positions_matched = 0;
};

/// Tables 1-2 (§4.3).  For every grid point: the ranked strategies' mean
/// measured times over the seeds, ranked, against model::Predictor's
/// makespans on the same load realizations (one per seed, summed over the
/// loops each cell ran) with the P = 16 network characterization.  Rows run
/// in ascending P, grid order within one P, as the paper's tables do.
/// Throws std::invalid_argument unless the strategy axis holds the four
/// ranked strategies.
[[nodiscard]] std::vector<OrderRow> order_rows(const ExperimentGrid& grid,
                                               const SweepResult& sweep);

/// The order table, then "mean kendall tau = ..., exact rows k/n".
void write_order_table(std::ostream& os, const std::vector<OrderRow>& rows);

/// Host-timing summary (total wall, serial-equivalent sum, speedup,
/// cells/s).  Separate from the deterministic result streams.
void write_timing(std::ostream& os, const SweepResult& sweep);

/// Round-trip double formatting (max_digits10, shortest-faithful enough
/// for byte comparison of equal doubles).
[[nodiscard]] std::string fmt_exact(double value);

}  // namespace dlb::exp
