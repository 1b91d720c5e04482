// The paper's "customization" end to end (§4.3): characterize the network
// off-line, feed the program and load parameters into the cost model, rank
// the four DLB strategies, commit to the best, and run under it — then
// compare against actually running every strategy.
//
//   ./auto_select [--app=mxm|trfd] [--procs=4] [--seed=42] [--tl=<s>]
//                 [--rate=<ops/s>] [--n=30] [--R=400] [--C=400] [--R2=400]
//                 [--threads=0]
//   (--tl and --rate default to the app's calibration)
//
// The four verification runs execute as one exp::Runner sweep on a pool of
// --threads workers (0 = hardware); results come back in strategy order
// regardless of which finishes first.

#include <iostream>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "apps/trfd.hpp"
#include "core/runtime.hpp"
#include "decision/selector.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "net/characterize.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const support::Cli cli(argc, argv);

  const std::string app_name = cli.get("app", "mxm");
  const int procs = static_cast<int>(cli.get_int("procs", 4));

  // The app's calibration (apps/calibration.hpp) unless overridden.
  const bool trfd = app_name == "trfd";
  const auto app =
      trfd ? apps::make_trfd({static_cast<int>(cli.get_int("n", 30))})
           : apps::make_mxm({cli.get_int("R", 400), cli.get_int("C", 400), cli.get_int("R2", 400)});
  const auto& defaults = trfd ? apps::kTrfdCalibration : apps::kMxmCalibration;
  const apps::Calibration calibration{cli.get_double("rate", defaults.base_ops_per_sec),
                                      cli.get_double("tl", defaults.tl_seconds)};
  auto params = calibration.cluster(procs);
  params.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  std::cout << "Characterizing the network (P = 2.." << std::max(procs, 16) << ")...\n";
  const auto characterization = net::characterize(params.network, std::max(procs, 16));

  core::DlbConfig config;
  const decision::Selector selector(params, characterization.costs, config);
  const auto selection = selector.select(app);

  std::cout << "\nModel predictions for " << app.name << " on P=" << procs << ":\n\n";
  support::Table predicted({"strategy", "predicted [s]", "syncs", "overhead [s]"});
  for (const auto& p : selection.predictions) {
    predicted.add_row({core::strategy_name(p.strategy),
                       support::fmt_fixed(p.makespan_seconds, 3), std::to_string(p.syncs),
                       support::fmt_fixed(p.overhead_seconds, 3)});
  }
  predicted.print(std::cout);
  std::cout << "\ncommitted strategy: " << core::strategy_name(selection.chosen) << "\n\n";

  std::cout << "Actual runs (same load realization):\n\n";
  exp::ExperimentGrid grid;
  grid.cluster_template = params;
  grid.procs = {params.procs};
  grid.strategies = exp::parse_strategies("ranked");
  grid.max_loads = {params.load.max_load};
  grid.seeds = 1;
  grid.seed0 = params.seed;
  grid.apps.push_back({app.name, app, calibration, {}});

  exp::RunnerOptions options;
  options.threads = static_cast<int>(cli.get_int("threads", 0));
  const auto sweep = exp::Runner(options).run(grid);

  support::Table actual({"strategy", "measured [s]"});
  for (const auto& cell : sweep.cells) {
    actual.add_row({cell.result.strategy_name, support::fmt_fixed(cell.result.exec_seconds, 3)});
  }
  actual.print(std::cout);
  return 0;
}
