// print_predictions — prints the cost model's exact output, for the
// golden test golden_predictions (tests/golden/predictions.txt).
//
// Every StrategyPrediction field of the five strategies, on MXM at Table 1's
// sizes, both TRFD loops, a triangular loop (non-uniform work, so the order
// in which owned work is summed shows), a stencil loop (the intrinsic-
// communication term) and a mixed-speed cluster, at P = 4 and 16 and seeds
// 1000 and 1001; then the default and hetero service prediction tables at
// P = 16 and both seeds.  Doubles print as %a hex floats, so a change in the
// last bit of any prediction changes the output.
//
//   print_predictions > predictions.txt

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "cluster/cluster.hpp"
#include "core/types.hpp"
#include "model/predictor.hpp"
#include "net/characterize.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"

namespace {

using namespace dlb;

constexpr core::Strategy kStrategies[] = {core::Strategy::kNoDlb, core::Strategy::kGCDLB,
                                          core::Strategy::kGDDLB, core::Strategy::kLCDLB,
                                          core::Strategy::kLDDLB};
constexpr int kProcs[] = {4, 16};
constexpr std::uint64_t kSeeds[] = {1000, 1001};

void print_loop(const std::string& label, const core::LoopDescriptor& loop,
                const cluster::ClusterParams& params, const net::CollectiveCosts& costs) {
  model::PredictorInputs inputs;
  inputs.cluster = params;
  inputs.loop = &loop;
  inputs.costs = costs;
  inputs.config = core::DlbConfig{};
  const model::Predictor predictor(inputs);
  for (const auto strategy : kStrategies) {
    const auto p = predictor.predict(strategy);
    std::printf("%s P=%d seed=%" PRIu64 " %s makespan=%a syncs=%d redistributions=%d moved=%" PRId64
                " overhead=%a\n",
                label.c_str(), params.procs, params.seed, core::strategy_name(p.strategy),
                p.makespan_seconds, p.syncs, p.redistributions, p.iterations_moved,
                p.overhead_seconds);
  }
}

/// Every case at both P and both seeds, on `calibration`'s cluster.
void print_cases(const std::string& label, const apps::Calibration& calibration,
                 const net::CollectiveCosts& costs,
                 const std::vector<core::LoopDescriptor>& loops_p4,
                 const std::vector<core::LoopDescriptor>& loops_p16) {
  for (const int procs : kProcs) {
    const auto& loops = procs == 4 ? loops_p4 : loops_p16;
    for (std::size_t li = 0; li < loops.size(); ++li) {
      for (const auto seed : kSeeds) {
        cluster::ClusterParams params = calibration.cluster(procs);
        params.seed = seed;
        print_loop(label + (loops.size() > 1 ? " L" + std::to_string(li + 1) : ""), loops[li],
                   params, costs);
      }
    }
  }
}

}  // namespace

int main() {
  const auto costs = net::characterize(net::EthernetParams{}, 16).costs;

  // Table 1's MXM shapes: R = 100·P or 200·P, C = 400 or 800, R2 = 400.
  for (const std::int64_t rows_per_proc : {100, 200}) {
    for (const std::int64_t c : {400, 800}) {
      const auto p4 = apps::make_mxm({rows_per_proc * 4, c, 400});
      const auto p16 = apps::make_mxm({rows_per_proc * 16, c, 400});
      print_cases("mxm[R=" + std::to_string(rows_per_proc) + "P,C=" + std::to_string(c) + "]",
                  apps::kMxmCalibration, costs, p4.loops, p16.loops);
    }
  }

  // Both TRFD loops, each predicted alone, as Table 2 ranks them.
  for (const int n : {30, 40, 50}) {
    const auto trfd = apps::make_trfd({n});
    print_cases("trfd[n=" + std::to_string(n) + "]", apps::kTrfdCalibration, costs, trfd.loops,
                trfd.loops);
  }

  const auto triangular = apps::make_triangular(400, 200e3, 20e3, 512.0);
  print_cases("triangular", apps::kSyntheticCalibration, costs, triangular.loops,
              triangular.loops);
  const auto stencil = apps::make_stencil(256, 100e3, 256.0, 1024.0);
  print_cases("stencil", apps::kSyntheticCalibration, costs, stencil.loops, stencil.loops);

  // Mixed speeds: the triangular loop on stations of four speeds.
  for (const int procs : kProcs) {
    for (const auto seed : kSeeds) {
      cluster::ClusterParams params = apps::kSyntheticCalibration.cluster(procs);
      params.seed = seed;
      for (int i = 0; i < procs; ++i) params.speeds.push_back(0.5 + 0.5 * (i % 4));
      print_loop("triangular-mixed-speeds", triangular.loops[0], params, costs);
    }
  }

  // The service prediction tables at P = 16, as a service cell builds them.
  for (const char* mix_name : {"default", "hetero"}) {
    const auto mix = svc::JobMix::builtin(mix_name);
    for (const auto seed : kSeeds) {
      cluster::ClusterParams params = apps::kSyntheticCalibration.cluster(16);
      params.seed = seed;
      const auto table = svc::predicted_service_table(params, core::DlbConfig{}, mix, costs, 8);
      for (std::size_t c = 0; c < table.size(); ++c) {
        for (std::size_t v = 0; v < table[c].size(); ++v) {
          std::printf("table %s seed=%" PRIu64 " class=%s variant=%zu", mix_name, seed,
                      mix.classes[c].name.c_str(), v);
          for (const double makespan : table[c][v]) std::printf(" %a", makespan);
          std::printf("\n");
        }
      }
    }
  }
  return 0;
}
