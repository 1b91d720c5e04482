// Ablation A1: group size K for the local strategies (paper §3.5-§3.6:
// "the number of neighbors is selected statically"; the global schemes are
// the K = P extreme).  MXM on P = 16 with K in {2, 4, 8, 16}: small groups
// synchronize cheaply but balance poorly across groups; K = P coincides
// with the global scheme.

#include <iostream>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const auto args = bench::parse_bench_args(argc, argv);

  const auto app = apps::make_mxm({1600, 400, 400});
  auto params = apps::kMxmCalibration.cluster(16);

  std::cout << "Ablation A1: group size K (MXM R=1600, P=16, " << args.seeds << " seeds)\n\n";
  support::Table table({"K", "LCDLB [norm]", "LDDLB [norm]", "LD syncs", "LD iters moved"});

  const auto baseline =
      bench::measure_scheme(params, app, core::Strategy::kNoDlb, args.seeds, args.seed0);

  for (const int k : {2, 4, 8, 16}) {
    core::DlbConfig lc;
    lc.strategy = core::Strategy::kLCDLB;
    lc.group_size = k;
    core::DlbConfig ld = lc;
    ld.strategy = core::Strategy::kLDDLB;

    std::vector<double> lc_times;
    std::vector<double> ld_times;
    double ld_syncs = 0.0;
    double ld_moved = 0.0;
    for (int s = 0; s < args.seeds; ++s) {
      params.seed = args.seed0 + static_cast<std::uint64_t>(s);
      lc_times.push_back(core::run_app(params, app, lc).exec_seconds);
      const auto r = core::run_app(params, app, ld);
      ld_times.push_back(r.exec_seconds);
      ld_syncs += r.total_syncs();
      ld_moved += static_cast<double>(r.total_iterations_moved());
    }
    table.add_row({std::to_string(k),
                   support::fmt_fixed(support::mean_of(lc_times) / baseline.mean_seconds, 3),
                   support::fmt_fixed(support::mean_of(ld_times) / baseline.mean_seconds, 3),
                   support::fmt_fixed(ld_syncs / args.seeds, 1),
                   support::fmt_fixed(ld_moved / args.seeds, 0)});
  }
  table.print(std::cout);
  std::cout << "(normalized to NoDLB = 1.0; K = 16 equals the global strategies)\n";
  return 0;
}
