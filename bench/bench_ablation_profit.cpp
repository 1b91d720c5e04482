// Ablation A3: the profitability margin and the movement threshold (paper
// §3.3-§3.4: work moves only when the predicted improvement is >= 10 %,
// movement cost excluded; tiny moves are suppressed).  Sweeps both knobs
// for MXM under GDDLB: margin 0 moves eagerly (more redistributions, more
// data motion), a huge margin degenerates toward NoDLB.

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

  const auto app = apps::make_mxm({400, 400, 400});
  auto params = apps::kMxmCalibration.cluster(4);

  const auto sweep = [&](const char* title, auto configure, const auto& values) {
    std::cout << title << "\n\n";
    support::Table table({"value", "time [s]", "syncs", "redists", "iters moved"});
    for (const double v : values) {
      core::DlbConfig config;
      config.strategy = core::Strategy::kGDDLB;
      configure(config, v);
      std::vector<double> times;
      double syncs = 0.0;
      double redists = 0.0;
      double moved = 0.0;
      for (int s = 0; s < args.seeds; ++s) {
        params.seed = args.seed0 + static_cast<std::uint64_t>(s);
        const auto r = core::run_app(params, app, config);
        times.push_back(r.exec_seconds);
        syncs += r.total_syncs();
        redists += r.total_redistributions();
        moved += static_cast<double>(r.total_iterations_moved());
      }
      table.add_row({support::fmt_fixed(v, 2), support::fmt_fixed(support::mean_of(times), 3),
                     support::fmt_fixed(syncs / args.seeds, 1),
                     support::fmt_fixed(redists / args.seeds, 1),
                     support::fmt_fixed(moved / args.seeds, 0)});
    }
    table.print(std::cout);
    std::cout << "\n";
  };

  sweep("Ablation A3a: profitability margin (MXM P=4, GDDLB; paper uses 0.10)",
        [](core::DlbConfig& c, double v) { c.profitability_margin = v; },
        std::vector<double>{0.0, 0.05, 0.10, 0.25, 0.50, 0.90});

  sweep("Ablation A3b: movement threshold fraction (MXM P=4, GDDLB)",
        [](core::DlbConfig& c, double v) { c.move_threshold_fraction = v; },
        std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.25, 0.50});
  return 0;
}
