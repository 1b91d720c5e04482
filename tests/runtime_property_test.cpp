// Property-style integration sweeps: every strategy must satisfy the core
// invariants on a grid of cluster shapes, loop shapes, and load seeds.

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "support/rng.hpp"

namespace {

using dlb::apps::make_sawtooth;
using dlb::apps::make_triangular;
using dlb::apps::make_uniform;
using dlb::cluster::ClusterParams;
using dlb::core::AppDescriptor;
using dlb::core::DlbConfig;
using dlb::core::RunResult;
using dlb::core::Strategy;

enum class LoopShape { kUniform, kTriangular, kSawtooth };

AppDescriptor app_for(LoopShape shape, std::int64_t iterations) {
  switch (shape) {
    case LoopShape::kUniform:
      return make_uniform(iterations, 30e3, 64.0);
    case LoopShape::kTriangular:
      return make_triangular(iterations, 60e3, 5e3, 64.0);
    case LoopShape::kSawtooth:
      return make_sawtooth(iterations, 50e3, 10e3, 64.0);
  }
  throw std::logic_error("unreachable");
}

const char* shape_name(LoopShape s) {
  switch (s) {
    case LoopShape::kUniform:
      return "Uniform";
    case LoopShape::kTriangular:
      return "Triangular";
    case LoopShape::kSawtooth:
      return "Sawtooth";
  }
  return "?";
}

using Param = std::tuple<Strategy, int, LoopShape, std::uint64_t>;

class RuntimeInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(RuntimeInvariants, HoldOnRandomizedConfigurations) {
  const auto [strategy, procs, shape, seed] = GetParam();
  const std::int64_t iterations = 40 + static_cast<std::int64_t>(seed % 37);

  ClusterParams params;
  params.procs = procs;
  params.base_ops_per_sec = 1e6;
  params.load.persistence = dlb::sim::from_seconds(0.25 + 0.25 * static_cast<double>(seed % 4));
  params.seed = seed;

  DlbConfig config;
  config.strategy = strategy;

  const auto app = app_for(shape, iterations);
  const RunResult r = dlb::core::run_app(params, app, config);
  const auto& loop = r.loops[0];

  // I1: every iteration executed exactly once (the Runtime additionally
  // throws internally if violated).
  const std::int64_t executed =
      std::accumulate(loop.executed_per_proc.begin(), loop.executed_per_proc.end(),
                      std::int64_t{0});
  EXPECT_EQ(executed, iterations);

  // I2: makespan bounds every per-processor finish and loop finish.
  for (const double t : loop.finish_per_proc) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, r.exec_seconds + 1e-9);
  }
  EXPECT_LE(loop.finish_seconds, r.exec_seconds + 1e-9);

  // I3: event log is time-ordered within each group and consistent with the
  // aggregate counters.
  std::int64_t moved = 0;
  int redists = 0;
  for (std::size_t i = 0; i < loop.events.size(); ++i) {
    const auto& e = loop.events[i];
    EXPECT_GE(e.at_seconds, 0.0);
    EXPECT_LE(e.at_seconds, r.exec_seconds + 1e-9);
    EXPECT_GE(e.total_remaining, 0);
    EXPECT_GE(e.iterations_moved, 0);
    if (e.redistributed) {
      EXPECT_GT(e.iterations_moved, 0);
      EXPECT_GT(e.transfer_messages, 0);
      ++redists;
    } else {
      EXPECT_EQ(e.iterations_moved, 0);
    }
    moved += e.iterations_moved;
  }
  EXPECT_EQ(moved, loop.iterations_moved);
  EXPECT_EQ(redists, loop.redistributions);
  EXPECT_EQ(static_cast<int>(loop.events.size()), loop.syncs);

  // I4: the no-DLB baseline is silent; the DLB strategies communicate when
  // their synchronization scope spans more than one processor (a local
  // strategy whose effective group size degenerates to 1 stays silent).
  if (strategy == Strategy::kNoDlb) {
    EXPECT_EQ(r.messages, 0u);
    EXPECT_EQ(loop.syncs, 0);
  } else if (config.effective_group_size(procs) > 1) {
    EXPECT_GT(r.messages, 0u);
    EXPECT_GT(loop.syncs, 0);
  }

  // I5: bit determinism.
  const RunResult again = dlb::core::run_app(params, app, config);
  EXPECT_DOUBLE_EQ(again.exec_seconds, r.exec_seconds);
  EXPECT_EQ(again.messages, r.messages);
  EXPECT_EQ(again.loops[0].iterations_moved, loop.iterations_moved);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RuntimeInvariants,
    ::testing::Combine(::testing::Values(Strategy::kNoDlb, Strategy::kGCDLB, Strategy::kGDDLB,
                                         Strategy::kLCDLB, Strategy::kLDDLB),
                       ::testing::Values(2, 5, 8),
                       ::testing::Values(LoopShape::kUniform, LoopShape::kTriangular,
                                         LoopShape::kSawtooth),
                       ::testing::Values(11ull, 29ull)),
    [](const auto& info) {
      return std::string(dlb::core::strategy_name(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param)) + "_" +
             shape_name(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
