// Differential harness: for every cell of a small grid, the parallel
// Runner's RunResult must be *exactly* equal — same virtual times to the
// last bit, same moves, same syncs, same traffic — to a serial reference
// that constructs Cluster + Runtime by hand.  Any divergence means a cell
// leaked state into another (shared RNG, global, engine reuse) and the
// parallel harness can no longer be trusted to reproduce the paper.

#include <gtest/gtest.h>

#include <string>

#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "support/cli.hpp"

namespace {

using dlb::core::RunResult;
using dlb::exp::ExperimentGrid;
using dlb::exp::Runner;
using dlb::exp::RunnerOptions;

ExperimentGrid small_grid() {
  ExperimentGrid grid;
  dlb::exp::AppSpec uniform;
  uniform.name = "uniform";
  uniform.app = dlb::apps::make_uniform(64, 50e3, 16.0);
  uniform.calibration = {1e6, 1.0};
  grid.apps.push_back(std::move(uniform));

  dlb::exp::AppSpec mxm;
  mxm.name = "mxm";
  mxm.app = dlb::apps::make_mxm({48, 24, 24});
  mxm.calibration = {1e6, 1.0};
  grid.apps.push_back(std::move(mxm));

  grid.procs = {2, 4};
  grid.strategies = dlb::exp::parse_strategies("all");
  grid.seeds = 2;
  grid.seed0 = 7000;
  return grid;
}

/// Field-by-field exact comparison; EXPECT_EQ on doubles is intentional —
/// determinism promises bit equality, not approximation.
void expect_identical(const RunResult& a, const RunResult& b, std::size_t cell) {
  SCOPED_TRACE("cell " + std::to_string(cell));
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_EQ(a.strategy_name, b.strategy_name);
  EXPECT_EQ(a.exec_seconds, b.exec_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.total_syncs(), b.total_syncs());
  EXPECT_EQ(a.total_redistributions(), b.total_redistributions());
  EXPECT_EQ(a.total_iterations_moved(), b.total_iterations_moved());
  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (std::size_t l = 0; l < a.loops.size(); ++l) {
    EXPECT_EQ(a.loops[l].start_seconds, b.loops[l].start_seconds);
    EXPECT_EQ(a.loops[l].finish_seconds, b.loops[l].finish_seconds);
    EXPECT_EQ(a.loops[l].executed_per_proc, b.loops[l].executed_per_proc);
    EXPECT_EQ(a.loops[l].finish_per_proc, b.loops[l].finish_per_proc);
    ASSERT_EQ(a.loops[l].events.size(), b.loops[l].events.size());
    for (std::size_t e = 0; e < a.loops[l].events.size(); ++e) {
      EXPECT_EQ(a.loops[l].events[e].at_seconds, b.loops[l].events[e].at_seconds);
      EXPECT_EQ(a.loops[l].events[e].iterations_moved, b.loops[l].events[e].iterations_moved);
      EXPECT_EQ(a.loops[l].events[e].redistributed, b.loops[l].events[e].redistributed);
    }
  }
}

TEST(ExpDifferential, ParallelRunnerEqualsHandRolledSerialRuntime) {
  const auto grid = small_grid();
  RunnerOptions options;
  options.threads = 4;
  const auto sweep = Runner(options).run(grid);
  ASSERT_EQ(sweep.cells.size(), grid.cell_count());

  for (std::size_t i = 0; i < grid.cell_count(); ++i) {
    const auto spec = grid.cell(i);
    // Independent serial reference: the plain Runtime::run flow every
    // experiment in the repo used before the parallel harness existed.
    dlb::cluster::Cluster cluster(spec.params);
    dlb::core::Runtime runtime(cluster, grid.apps[spec.app_i].app, spec.config);
    const auto reference = runtime.run();
    expect_identical(sweep.cells[i].result, reference, i);
    EXPECT_EQ(sweep.cells[i].spec.index, i);
  }
}

TEST(ExpDifferential, ParallelRunnerEqualsRunSerial) {
  const auto grid = small_grid();
  RunnerOptions options;
  options.threads = 8;
  options.shuffle_submission = true;
  options.shuffle_seed = 99;
  const auto parallel = Runner(options).run(grid);
  const auto serial = Runner::run_serial(grid);
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < parallel.cells.size(); ++i) {
    expect_identical(parallel.cells[i].result, serial.cells[i].result, i);
  }
}

TEST(ExpDifferential, SingleLoopGridMatchesRunAppLoop) {
  auto grid = small_grid();
  grid.apps.resize(1);  // the uniform app (single loop)
  grid.loop_index = 0;
  RunnerOptions options;
  options.threads = 2;
  const auto sweep = Runner(options).run(grid);
  for (std::size_t i = 0; i < grid.cell_count(); ++i) {
    const auto spec = grid.cell(i);
    const auto reference =
        dlb::core::run_app_loop(spec.params, grid.apps[spec.app_i].app, spec.config, 0);
    expect_identical(sweep.cells[i].result, reference, i);
  }
}

TEST(ExpDifferential, OneLoopAppMatchesRunSingleLoop) {
  // --figure=table2 ranks each TRFD loop as a one-loop app instead of
  // sweeping a loop axis; that is sound only if the one-loop app runs
  // exactly as Runtime::run_single_loop runs that loop of the whole app.
  const char* argv[] = {"exp_differential_test", "--figure=table2", "--seeds=1"};
  const dlb::support::Cli cli(3, argv);
  const auto grid = dlb::exp::parse_grid(cli);
  ASSERT_EQ(grid.apps.size(), 6u);  // n = 30, 40, 50 x loops L1, L2
  RunnerOptions options;
  options.threads = 2;
  const auto sweep = Runner(options).run(grid);
  for (std::size_t i = 0; i < grid.cell_count(); ++i) {
    const auto& spec = sweep.cells[i].spec;
    const int n = 30 + 10 * static_cast<int>(spec.app_i / 2);
    const std::size_t loop = spec.app_i % 2;
    const auto reference =
        dlb::core::run_app_loop(spec.params, dlb::apps::make_trfd({n}), spec.config, loop);
    const auto& result = sweep.cells[i].result;
    SCOPED_TRACE(spec.app_name + " P=" + std::to_string(spec.params.procs) + " " +
                 result.strategy_name);
    EXPECT_EQ(result.exec_seconds, reference.exec_seconds);
    EXPECT_EQ(result.messages, reference.messages);
    EXPECT_EQ(result.bytes, reference.bytes);
    EXPECT_EQ(result.total_syncs(), reference.total_syncs());
    EXPECT_EQ(result.total_iterations_moved(), reference.total_iterations_moved());
    ASSERT_EQ(result.loops.size(), 1u);
    EXPECT_EQ(result.loops[0].executed_per_proc, reference.loops[0].executed_per_proc);
  }
}

}  // namespace
