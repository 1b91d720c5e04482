// Ablation A6: network topology (§4.1 lists it as a model parameter; the
// paper assumes one fully connected uniform LAN).  Two Ethernet segments
// joined by a switch (two racks of 8 on the switched topology; a switch is
// a multiport bridge), with the local strategies' K-block groups aligned to
// the segments: local balancing never crosses the bridge, the global
// schemes must — the topology argument for customizing toward local schemes
// on segmented department LANs.

#include <iostream>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "net/topology.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const auto args = bench::parse_bench_args(argc, argv);

  const auto app = apps::make_mxm({1600, 400, 400});

  std::cout << "Ablation A6: one shared LAN vs two bridged segments (MXM P=16, "
            << args.seeds << " seeds)\n\n";
  support::Table table({"topology", "strategy", "time [s]", "normalized", "bridge msgs"});

  for (const int segments : {1, 2}) {
    auto params = apps::kMxmCalibration.cluster(16);
    if (segments == 2) {
      params.topology = net::TopologyKind::kSwitched;
      params.switched.rack_size = 8;
    }
    double baseline = 0.0;
    for (const auto strategy :
         {core::Strategy::kNoDlb, core::Strategy::kGDDLB, core::Strategy::kLDDLB}) {
      core::DlbConfig config;
      config.strategy = strategy;
      config.group_size = 8;  // groups align with the two segments
      std::vector<double> times;
      double crossings = 0.0;
      for (int s = 0; s < args.seeds; ++s) {
        params.seed = args.seed0 + static_cast<std::uint64_t>(s);
        cluster::Cluster cluster(params);
        core::Runtime runtime(cluster, app, config);
        times.push_back(runtime.run().exec_seconds);
        crossings += static_cast<double>(cluster.network().bridge_crossings());
      }
      const double mean = support::mean_of(times);
      if (strategy == core::Strategy::kNoDlb) baseline = mean;
      table.add_row({segments == 1 ? "1 segment" : "2 segments",
                     core::strategy_name(strategy), support::fmt_fixed(mean, 3),
                     support::fmt_fixed(mean / baseline, 3),
                     support::fmt_fixed(crossings / args.seeds, 0)});
    }
    if (segments == 1) table.add_rule();
  }
  table.print(std::cout);
  std::cout << "(with segment-aligned groups, LDDLB's traffic never crosses the bridge;\n"
               " GDDLB's profile broadcasts and work shipments do)\n";
  return 0;
}
