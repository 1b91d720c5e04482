// Per-processor timelines of one run: where the time goes under a static
// partition vs under dynamic load balancing.  Renders ASCII Gantt charts
// ('#' compute, 's' synchronize, 'm' move work, '.' idle) plus utilization.
//
//   ./timeline_viz [--procs=4] [--R=200] [--strategy=GDDLB] [--seed=42]
//                  [--tl=<s>] [--width=100]   (--tl defaults to MXM's calibration)

#include <iostream>
#include <string>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "core/runtime.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

dlb::core::Strategy parse_strategy(const std::string& name) {
  using dlb::core::Strategy;
  if (name == "NoDLB") return Strategy::kNoDlb;
  if (name == "GCDLB") return Strategy::kGCDLB;
  if (name == "GDDLB") return Strategy::kGDDLB;
  if (name == "LCDLB") return Strategy::kLCDLB;
  if (name == "LDDLB") return Strategy::kLDDLB;
  throw std::invalid_argument("unknown strategy: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlb;
  const support::Cli cli(argc, argv);
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const int width = static_cast<int>(cli.get_int("width", 100));

  auto params = apps::kMxmCalibration.cluster(procs);
  params.load.persistence =
      sim::from_seconds(cli.get_double("tl", apps::kMxmCalibration.tl_seconds));
  params.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const auto app = apps::make_mxm({cli.get_int("R", 200), 400, 400});

  for (const auto strategy :
       {core::Strategy::kNoDlb, parse_strategy(cli.get("strategy", "GDDLB"))}) {
    core::DlbConfig config;
    config.strategy = strategy;
    config.record_trace = true;
    const auto result = core::run_app(params, app, config);

    std::cout << "=== " << result.strategy_name << " — " << result.app_name << ", P=" << procs
              << ", exec " << support::fmt_fixed(result.exec_seconds, 2) << " s, "
              << result.total_syncs() << " syncs, " << result.total_iterations_moved()
              << " iterations moved ===\n\n";
    result.obs->render_gantt(std::cout, procs, width);

    const auto util = result.obs->utilization(procs);
    std::cout << "compute utilization:";
    for (int p = 0; p < procs; ++p) {
      std::cout << "  P" << p << " " << support::fmt_fixed(util[static_cast<std::size_t>(p)] * 100, 0)
                << "%";
    }
    std::cout << "\n\n";
  }
  std::cout << "Idle tails on the static run are the imbalance the DLB strategies reclaim.\n";
  return 0;
}
