#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "core/types.hpp"

namespace dlb::bench {

/// Mean execution time and syncs of `app` under `strategy` over `seeds`
/// seeds (seed = seed0 + s).  The paper's figures and tables run through
/// `dlb_sweep`; this serial loop serves the ablations whose knobs are not
/// grid axes.
struct SchemeResult {
  core::Strategy strategy;
  double mean_seconds = 0.0;
  double mean_syncs = 0.0;
};
[[nodiscard]] SchemeResult measure_scheme(cluster::ClusterParams params,
                                          const core::AppDescriptor& app,
                                          core::Strategy strategy, int seeds,
                                          std::uint64_t seed0);

/// Common CLI knobs: --seeds, --seed0.
struct BenchArgs {
  int seeds = 3;
  std::uint64_t seed0 = 1000;
};
[[nodiscard]] BenchArgs parse_bench_args(int argc, char** argv);

}  // namespace dlb::bench
