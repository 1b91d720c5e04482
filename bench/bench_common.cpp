#include "bench_common.hpp"

#include <vector>

#include "core/runtime.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

namespace dlb::bench {

SchemeResult measure_scheme(cluster::ClusterParams params, const core::AppDescriptor& app,
                            core::Strategy strategy, int seeds, std::uint64_t seed0) {
  core::DlbConfig config;
  config.strategy = strategy;
  SchemeResult out;
  out.strategy = strategy;
  std::vector<double> times;
  for (int s = 0; s < seeds; ++s) {
    params.seed = seed0 + static_cast<std::uint64_t>(s);
    const auto result = core::run_app(params, app, config);
    times.push_back(result.exec_seconds);
    out.mean_syncs += result.total_syncs();
  }
  out.mean_seconds = support::mean_of(times);
  out.mean_syncs /= seeds;
  return out;
}

BenchArgs parse_bench_args(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  BenchArgs args;
  args.seeds = static_cast<int>(cli.get_int("seeds", 3));
  args.seed0 = static_cast<std::uint64_t>(cli.get_int("seed0", 1000));
  return args;
}

}  // namespace dlb::bench
