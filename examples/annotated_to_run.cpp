// The whole paper in one pipeline: an annotated sequential program with
// symbolic cost functions is "compiled" into a loop descriptor, the network
// is characterized off-line, the cost model ranks the four DLB strategies
// under the observed load, the best is committed, and the program runs on
// the simulated NOW under it (§4.3 + §5).
//
//   ./annotated_to_run [file] [--R=400] [--C=400] [--R2=400] [--n=...]
//                      [--procs=4] [--seed=42] [--rate=<ops/s>] [--tl=<s>]
//   (--rate and --tl default to MXM's calibration)

#include <fstream>
#include <iostream>
#include <sstream>

#include "apps/calibration.hpp"
#include "codegen/compile.hpp"
#include "codegen/emitter.hpp"
#include "core/runtime.hpp"
#include "decision/selector.hpp"
#include "net/characterize.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

const char* kDefaultSource = R"(// Annotated MXM with symbolic cost functions.
#pragma dlb array Z(R, C) distribute(BLOCK, WHOLE)
#pragma dlb array X(R, R2) distribute(BLOCK, WHOLE)
#pragma dlb array Y(R2, C) distribute(WHOLE, WHOLE)
#pragma dlb balance work(C * R2) comm(C * 8)
for i = 0, R {
  for j = 0, R2 {
    for k = 0, C {
      Z(i,j) += X(i,k) * Y(k,j);
    }
  }
}
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace dlb;
  const support::Cli cli(argc, argv);

  std::string source = kDefaultSource;
  if (!cli.positional().empty()) {
    std::ifstream in(cli.positional()[0]);
    if (!in) {
      std::cerr << "cannot open " << cli.positional()[0] << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  // Run-time parameter bindings for the symbolic expressions.
  codegen::Bindings bindings;
  for (const char* symbol : {"R", "C", "R2", "n", "N", "M"}) {
    if (cli.has(symbol)) bindings[symbol] = cli.get_double(symbol, 0.0);
  }
  if (bindings.empty()) bindings = {{"R", 400.0}, {"C", 400.0}, {"R2", 400.0}};

  try {
    std::cout << "=== 1. compile: annotated source -> SPMD code + loop descriptor ===\n\n";
    std::cout << codegen::transform(source) << "\n";
    const auto app = codegen::compile_app(source, bindings);
    const auto& loop = app.loops[0];
    std::cout << "descriptor: " << loop.iterations << " iterations, "
              << support::fmt_sig(loop.mean_ops(), 4) << " ops/iteration, "
              << support::fmt_sig(loop.bytes_per_iteration, 4) << " bytes moved/iteration\n\n";

    // MXM's calibration (apps/calibration.hpp) unless overridden.
    const auto& mxm_cal = apps::kMxmCalibration;
    auto params = mxm_cal.cluster(static_cast<int>(cli.get_int("procs", 4)));
    params.base_ops_per_sec = cli.get_double("rate", mxm_cal.base_ops_per_sec);
    params.load.persistence = sim::from_seconds(cli.get_double("tl", mxm_cal.tl_seconds));
    params.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

    std::cout << "=== 2. characterize the network, 3. model + commit, 4. run ===\n\n";
    const auto ch = net::characterize(params.network, std::max(params.procs, 16));
    const auto run = decision::run_auto(params, app, core::DlbConfig{}, ch.costs);

    support::Table predictions({"strategy", "predicted [s]"});
    for (const auto& p : run.selection.predictions) {
      predictions.add_row(
          {core::strategy_name(p.strategy), support::fmt_fixed(p.makespan_seconds, 3)});
    }
    predictions.print(std::cout);
    std::cout << "\ncommitted: " << core::strategy_name(run.selection.chosen)
              << "   measured: " << support::fmt_fixed(run.result.exec_seconds, 3) << " s ("
              << run.result.total_syncs() << " syncs, " << run.result.total_iterations_moved()
              << " iterations moved)\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
