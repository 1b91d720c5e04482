// Heterogeneous NOW scenario (the paper's motivation beyond external load:
// "heterogeneity in processors, memory, and network"): a mixed cluster of
// fast and slow workstations, with and without multi-user load, comparing
// static equal partitioning against dynamic load balancing and showing
// where the iterations end up.
//
//   ./heterogeneous_cluster [--seeds=5] [--R=400]

#include <iostream>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "core/runtime.hpp"
#include "load/load_function.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const support::Cli cli(argc, argv);
  const int seeds = static_cast<int>(cli.get_int("seeds", 5));
  const std::int64_t R = cli.get_int("R", 400);

  // Two "new" machines (2x base speed), two older ones (1x, 0.5x).
  // MXM's rate; a shorter t_l than its calibration.
  auto params = apps::kMxmCalibration.cluster(4);
  params.speeds = {2.0, 2.0, 1.0, 0.5};
  params.load.persistence = sim::from_seconds(4.0);

  const auto app = apps::make_mxm({R, 400, 400});

  for (const bool with_load : {false, true}) {
    params.load.max_load = with_load ? load::LoadParams{}.max_load : 0;
    std::cout << (with_load ? "\nDedicated? No — multi-user external load (m_l=5):\n"
                            : "Dedicated heterogeneous cluster (speeds 2.0/2.0/1.0/0.5):\n")
              << "\n";
    support::Table table(
        {"strategy", "time [s]", "vs NoDLB", "iters/proc (speed 2.0/2.0/1.0/0.5)"});
    double baseline = 0.0;
    for (const auto strategy :
         {core::Strategy::kNoDlb, core::Strategy::kGDDLB, core::Strategy::kLDDLB}) {
      core::DlbConfig config;
      config.strategy = strategy;
      std::vector<double> times;
      std::vector<double> executed(4, 0.0);
      for (int s = 0; s < seeds; ++s) {
        params.seed = 7000 + static_cast<std::uint64_t>(s);
        const auto r = core::run_app(params, app, config);
        times.push_back(r.exec_seconds);
        for (int p = 0; p < 4; ++p) {
          executed[static_cast<std::size_t>(p)] +=
              static_cast<double>(r.loops[0].executed_per_proc[static_cast<std::size_t>(p)]) /
              seeds;
        }
      }
      const double mean = support::mean_of(times);
      if (strategy == core::Strategy::kNoDlb) baseline = mean;
      std::string split;
      for (int p = 0; p < 4; ++p) {
        if (p != 0) split += " / ";
        split += support::fmt_fixed(executed[static_cast<std::size_t>(p)], 0);
      }
      table.add_row({core::strategy_name(strategy), support::fmt_fixed(mean, 3),
                     support::fmt_fixed(mean / baseline, 3), split});
    }
    table.print(std::cout);
  }
  std::cout << "\nDynamic balancing routes iterations toward the fast (and lightly loaded)\n"
               "machines; the static equal split leaves the 0.5x node as the bottleneck.\n";
  return 0;
}
