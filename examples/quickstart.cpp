// Quickstart: run the paper's matrix-multiply workload on a simulated
// network of workstations under every load-balancing strategy and print the
// normalized execution times (one row of the paper's Fig. 5).
//
//   ./quickstart [--procs=4] [--R=400] [--C=400] [--R2=400] [--seeds=5]
//                [--tl=<s>] [--ml=<m_l>] [--rate=<ops/s>]
//   (--tl, --ml and --rate default to MXM's calibration)

#include <iostream>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "core/runtime.hpp"
#include "core/types.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const support::Cli cli(argc, argv);

  const int procs = static_cast<int>(cli.get_int("procs", 4));
  apps::MxmParams mxm;
  mxm.R = cli.get_int("R", 400);
  mxm.C = cli.get_int("C", 400);
  mxm.R2 = cli.get_int("R2", 400);
  const int seeds = static_cast<int>(cli.get_int("seeds", 5));

  // MXM's calibration (apps/calibration.hpp) unless overridden.
  const auto& mxm_cal = apps::kMxmCalibration;
  auto params = mxm_cal.cluster(procs);
  params.base_ops_per_sec = cli.get_double("rate", mxm_cal.base_ops_per_sec);
  params.load.max_load = static_cast<int>(cli.get_int("ml", params.load.max_load));
  params.load.persistence = sim::from_seconds(cli.get_double("tl", mxm_cal.tl_seconds));

  const auto app = apps::make_mxm(mxm);

  const core::Strategy strategies[] = {core::Strategy::kNoDlb, core::Strategy::kGCDLB,
                                       core::Strategy::kGDDLB, core::Strategy::kLCDLB,
                                       core::Strategy::kLDDLB};

  std::cout << "MXM  R=" << mxm.R << " C=" << mxm.C << " R2=" << mxm.R2 << "  P=" << procs
            << "  (" << seeds << " load seeds, m_l=" << params.load.max_load << ")\n\n";

  support::Table table({"strategy", "time [s]", "normalized", "syncs", "redists", "iters moved"});
  double no_dlb_mean = 0.0;
  for (const auto strategy : strategies) {
    core::DlbConfig config;
    config.strategy = strategy;
    std::vector<double> times;
    double syncs = 0.0;
    double redists = 0.0;
    double moved = 0.0;
    for (int s = 0; s < seeds; ++s) {
      params.seed = 1000 + static_cast<std::uint64_t>(s);
      const auto result = core::run_app(params, app, config);
      times.push_back(result.exec_seconds);
      syncs += result.total_syncs();
      redists += result.total_redistributions();
      moved += static_cast<double>(result.total_iterations_moved());
    }
    const auto summary = support::summarize(times);
    if (strategy == core::Strategy::kNoDlb) no_dlb_mean = summary.mean;
    table.add_row({core::strategy_name(strategy), support::fmt_fixed(summary.mean, 3),
                   support::fmt_fixed(summary.mean / no_dlb_mean, 3),
                   support::fmt_fixed(syncs / seeds, 1), support::fmt_fixed(redists / seeds, 1),
                   support::fmt_fixed(moved / seeds, 0)});
  }
  table.print(std::cout);
  std::cout << "\n(normalized to the NoDLB static-partition run, as in the paper's figures)\n";
  return 0;
}
