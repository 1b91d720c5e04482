// Determinism property: a sweep's merged output bytes are a function of
// the grid alone — not of pool width, not of submission order, not of
// which worker finishes first.  Run the same grid with 1, 2 and 8 threads
// and with shuffled submission; every CSV/JSON byte must match.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "support/cli.hpp"

namespace {

using dlb::exp::ExperimentGrid;
using dlb::exp::ReportOptions;
using dlb::exp::Runner;
using dlb::exp::RunnerOptions;
using dlb::exp::SweepResult;

ExperimentGrid property_grid() {
  ExperimentGrid grid;
  dlb::exp::AppSpec sawtooth;
  sawtooth.name = "sawtooth";
  sawtooth.app = dlb::apps::make_sawtooth(48, 80e3, 20e3, 8.0);
  sawtooth.calibration = {1e6, 0.5};
  grid.apps.push_back(std::move(sawtooth));

  dlb::exp::AppSpec trfd;
  trfd.name = "trfd";
  trfd.app = dlb::apps::make_trfd({8});  // two loops + transpose
  trfd.calibration = {1e6, 0.5};
  grid.apps.push_back(std::move(trfd));

  grid.procs = {4};
  grid.strategies = dlb::exp::parse_strategies("all");
  grid.max_loads = {0, 5};  // dedicated + loaded
  grid.seeds = 2;
  grid.seed0 = 31000;
  return grid;
}

std::string csv_of(const SweepResult& sweep) {
  std::ostringstream os;
  dlb::exp::write_csv(os, sweep, ReportOptions{});
  return os.str();
}

std::string json_of(const SweepResult& sweep) {
  std::ostringstream os;
  dlb::exp::write_json(os, sweep, ReportOptions{});
  return os.str();
}

TEST(ExpDeterminism, MergedBytesIdenticalAcrossThreadCounts) {
  const auto grid = property_grid();

  RunnerOptions one;
  one.threads = 1;
  RunnerOptions two;
  two.threads = 2;
  RunnerOptions eight;
  eight.threads = 8;

  const auto sweep1 = Runner(one).run(grid);
  const auto sweep2 = Runner(two).run(grid);
  const auto sweep8 = Runner(eight).run(grid);

  const auto csv1 = csv_of(sweep1);
  ASSERT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv_of(sweep2));
  EXPECT_EQ(csv1, csv_of(sweep8));
  const auto json1 = json_of(sweep1);
  EXPECT_EQ(json1, json_of(sweep2));
  EXPECT_EQ(json1, json_of(sweep8));
}

TEST(ExpDeterminism, MergedBytesIdenticalUnderShuffledSubmission) {
  const auto grid = property_grid();
  RunnerOptions plain;
  plain.threads = 4;
  const auto baseline = csv_of(Runner(plain).run(grid));

  for (const std::uint64_t shuffle_seed : {1ull, 2ull, 3ull}) {
    RunnerOptions shuffled;
    shuffled.threads = 4;
    shuffled.shuffle_submission = true;
    shuffled.shuffle_seed = shuffle_seed;
    EXPECT_EQ(baseline, csv_of(Runner(shuffled).run(grid)))
        << "shuffle seed " << shuffle_seed;
  }
}

TEST(ExpDeterminism, SerialReferenceProducesTheSameBytes) {
  const auto grid = property_grid();
  RunnerOptions options;
  options.threads = 8;
  EXPECT_EQ(csv_of(Runner::run_serial(grid)), csv_of(Runner(options).run(grid)));
}

TEST(ExpDeterminism, RepeatedRunsAreIdempotent) {
  const auto grid = property_grid();
  RunnerOptions options;
  options.threads = 2;
  const Runner runner(options);
  EXPECT_EQ(csv_of(runner.run(grid)), csv_of(runner.run(grid)));
}

TEST(ExpDeterminism, Figure5BytesIdenticalAcrossThreadCountsUnderActiveQueue) {
  // The paper's Fig. 5 grid — the byte-identity anchor of the whole repo —
  // must merge to the same CSV at 1, 2 and 8 runner threads; the golden_fig5
  // test pins the bytes themselves.
  const char* argv[] = {"exp_determinism_test", "--figure=5", "--seeds=2"};
  const dlb::support::Cli cli(3, argv);
  const auto grid = dlb::exp::parse_grid(cli);

  RunnerOptions one;
  one.threads = 1;
  const auto csv1 = csv_of(Runner(one).run(grid));
  ASSERT_FALSE(csv1.empty());
  for (const int threads : {2, 8}) {
    RunnerOptions more;
    more.threads = threads;
    EXPECT_EQ(csv1, csv_of(Runner(more).run(grid)))
        << "fig5 CSV diverged at " << threads << " threads";
  }
}

TEST(ExpDeterminism, Figure5BytesIdenticalAcrossShardCounts) {
  // Requesting engine shards must never change merged bytes.  Fig. 5 runs
  // the shared topology, where sharding is silently declined (a broadcast
  // domain has zero cross-partition lookahead) — the contract is still that
  // `--shards=N` is invisible in the output, for every N and thread count.
  std::string baseline;
  for (const char* shards : {"--shards=1", "--shards=2", "--shards=4"}) {
    const char* argv[] = {"exp_determinism_test", "--figure=5", "--seeds=2", shards};
    const dlb::support::Cli cli(4, argv);
    const auto grid = dlb::exp::parse_grid(cli);
    for (const int threads : {1, 2}) {
      RunnerOptions options;
      options.threads = threads;
      const auto csv = csv_of(Runner(options).run(grid));
      ASSERT_FALSE(csv.empty());
      if (baseline.empty()) {
        baseline = csv;
      } else {
        EXPECT_EQ(baseline, csv)
            << "fig5 CSV diverged at " << shards << ", " << threads << " threads";
      }
    }
  }
}

TEST(ExpDeterminism, SwitchedBytesIdenticalAcrossShardAndThreadCounts) {
  // The sharded engine actually engages here: switched topology, 4 racks of
  // 2, so --shards=2 and --shards=4 run real conservative windows with
  // cross-shard ingress traffic.  Merged bytes must be a function of the
  // grid alone — identical for shards 1/2/4 at runner threads 1/2/8, where
  // the sharded cells additionally run their windows on pool workers via
  // PoolShardExecutor.  TRFD runs two loops and a transpose on one engine,
  // so it also pins that every shard resumes from the engine's time.
  std::string baseline;
  for (const char* shards : {"--shards=1", "--shards=2", "--shards=4"}) {
    const char* argv[] = {"exp_determinism_test", "--app=mxm,trfd", "--procs=8",
                          "--strategies=all",     "--seeds=2",      "--topology=switched",
                          "--rack-size=2",        shards};
    const dlb::support::Cli cli(8, argv);
    const auto grid = dlb::exp::parse_grid(cli);
    for (const int threads : {1, 2, 8}) {
      RunnerOptions options;
      options.threads = threads;
      const auto csv = csv_of(Runner(options).run(grid));
      ASSERT_FALSE(csv.empty());
      if (baseline.empty()) {
        baseline = csv;
      } else {
        EXPECT_EQ(baseline, csv)
            << "switched CSV diverged at " << shards << ", " << threads << " threads";
      }
    }
  }
}

dlb::sim::Process churn_process(dlb::sim::Engine& engine, int hops) {
  for (int i = 0; i < hops; ++i) co_await engine.sleep_for(7);
}

TEST(ExpDeterminism, WarmFragmentedPoolsProduceIdenticalBytes) {
  // The engine's call-node pool and the thread-local frame arena recycle
  // memory across runs.  Fragment them deliberately between two sweeps of
  // the same grid: the merged bytes must be a function of the grid alone,
  // independent of pool/arena history.
  const auto grid = property_grid();
  RunnerOptions options;
  options.threads = 2;
  const Runner runner(options);
  const auto cold = csv_of(runner.run(grid));

  // Churn this thread's arena and a throwaway engine's pools with a
  // workload shaped nothing like the sweep's cells.
  for (int round = 0; round < 3; ++round) {
    dlb::sim::Engine engine;
    long long sink = 0;
    for (int i = 0; i < 300; ++i) {
      engine.schedule_at(i * 13 % 97, [&sink, i] { sink += i; });
      engine.spawn(churn_process(engine, i % 5 + 1));
    }
    engine.run();
    ASSERT_GT(sink, 0);
  }

  EXPECT_EQ(cold, csv_of(runner.run(grid)));
  EXPECT_EQ(json_of(runner.run(grid)), json_of(runner.run(grid)));
}

}  // namespace
