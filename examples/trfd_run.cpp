// TRFD under every DLB strategy (paper §6.3, Figs. 7-8 and Table 2): two
// parallel loops with a sequentialized transpose in between.  Prints total
// normalized execution time plus per-loop times and strategy rankings.
//
//   ./trfd_run [--n=30] [--procs=4] [--seeds=5] [--tl=<s>] [--rate=<ops/s>]
//   (--tl and --rate default to TRFD's calibration)

#include <iostream>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/trfd.hpp"
#include "core/runtime.hpp"
#include "core/types.hpp"
#include "support/cli.hpp"
#include "support/ranking.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const support::Cli cli(argc, argv);

  const int n = static_cast<int>(cli.get_int("n", 30));
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const int seeds = static_cast<int>(cli.get_int("seeds", 5));

  // TRFD's calibration (apps/calibration.hpp) unless overridden.
  const auto& trfd_cal = apps::kTrfdCalibration;
  auto params = trfd_cal.cluster(procs);
  params.base_ops_per_sec = cli.get_double("rate", trfd_cal.base_ops_per_sec);
  params.load.persistence = sim::from_seconds(cli.get_double("tl", trfd_cal.tl_seconds));

  const auto app = apps::make_trfd({n});
  std::cout << "TRFD n=" << n << " (array " << apps::trfd_array_dim(n) << ")  P=" << procs
            << "  " << seeds << " seeds\n\n";

  const core::Strategy strategies[] = {core::Strategy::kNoDlb, core::Strategy::kGCDLB,
                                       core::Strategy::kGDDLB, core::Strategy::kLCDLB,
                                       core::Strategy::kLDDLB};

  support::Table table({"strategy", "total [s]", "normalized", "loop1 [s]", "loop2 [s]"});
  double baseline = 0.0;
  std::vector<double> ranked_costs(core::kRankedStrategyCount, 0.0);
  for (const auto strategy : strategies) {
    core::DlbConfig config;
    config.strategy = strategy;
    std::vector<double> total;
    std::vector<double> l1;
    std::vector<double> l2;
    for (int s = 0; s < seeds; ++s) {
      params.seed = 500 + static_cast<std::uint64_t>(s);
      const auto r = core::run_app(params, app, config);
      total.push_back(r.exec_seconds);
      l1.push_back(r.loops[0].elapsed_seconds());
      l2.push_back(r.loops[1].elapsed_seconds());
    }
    const double mean = support::mean_of(total);
    if (strategy == core::Strategy::kNoDlb) baseline = mean;
    if (strategy != core::Strategy::kNoDlb) {
      ranked_costs[static_cast<std::size_t>(core::ranked_id(strategy))] = mean;
    }
    table.add_row({core::strategy_name(strategy), support::fmt_fixed(mean, 3),
                   support::fmt_fixed(mean / baseline, 3),
                   support::fmt_fixed(support::mean_of(l1), 3),
                   support::fmt_fixed(support::mean_of(l2), 3)});
  }
  table.print(std::cout);

  const std::vector<std::string> labels{"GC", "GD", "LC", "LD"};
  const auto order = support::rank_by_cost(ranked_costs);
  std::cout << "\nmeasured order (best first): " << support::format_order(order, labels) << "\n";
  return 0;
}
