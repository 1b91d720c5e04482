// dlb_sweep — deterministic parallel experiment sweeps over the grid
// strategy x app x processors x load parameters x seeds.
//
//   ./dlb_sweep --figure=5                 # the paper's Fig. 5 grid (MXM, P=4)
//   ./dlb_sweep --figure=table1            # Table 1: actual vs predicted order
//   ./dlb_sweep --figure=scale             # weak-scaling: strategy x P x topology
//   ./dlb_sweep --figure=service           # open stream: latency vs rho x
//               strategy x arrival shape, with the service flag family
//               [--arrivals=poisson,bursty] [--rate=0.3,...]
//               [--jobs=1000000] [--hysteresis=0.05,3] [--load-variants=8]
//               [--mix=default|hetero] [--service-backend=model|sim]
//   ./dlb_sweep --app=mxm,trfd --procs=4,16 --strategies=all --seeds=3
//               [--tl=2,16] [--max-load=5] [--seed0=1000] [--loop=-1]
//               [--threads=0] [--format=summary|csv|json] [--timing]
//               [--topology=shared,switched] [--rack-size=32] [--shards=1]
//               [--iters-per-proc=32]       # scale preset: work per processor
//               [--R=400 --C=400 --R2=400] [--n=30]
//               [--faults=crash-half|crash-coord|crash-two|revoke-half|
//                         loss10|crash-loss]   # arm a fault preset
//               [--trace-out=DIR]  # one Chrome trace-event JSON per cell
//               [--metrics]        # append observability metric columns
//
// Output on stdout is bit-identical for any --threads value (cells are
// merged in canonical grid order); host timing goes to stderr, and only
// --timing adds (nondeterministic) wall-time columns to the rows.
// --trace-out files are deterministic too: names come from the canonical
// cell index and contents from virtual time only.  Unknown --flags are
// rejected, so a typo fails loudly instead of silently running the
// default grid.

#include <iostream>
#include <stdexcept>

#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_export.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  try {
    const support::Cli cli(argc, argv);
    cli.reject_unknown({"figure", "app", "procs", "strategies", "tl", "max-load", "seeds",
                        "seed0", "loop", "threads", "format", "timing", "faults", "R", "C",
                        "R2", "n", "iters", "ops", "bytes", "trace-out", "metrics",
                        "topology", "rack-size", "shards", "iters-per-proc", "arrivals",
                        "rate", "jobs", "hysteresis", "load-variants", "mix",
                        "service-backend"});
    auto grid = exp::parse_grid(cli);

    const auto trace_dir = cli.get("trace-out", "");
    if (!trace_dir.empty() && grid.service.armed) {
      throw std::invalid_argument("dlb_sweep: --trace-out is not available in service mode");
    }
    if (!trace_dir.empty()) {
      // A Chrome trace wants both layers: activity segments for the solid
      // track and the recorder for phases, flows, marks and counters.
      grid.config.record_trace = true;
      grid.config.observe = true;
    }
    const bool metrics = cli.has("metrics");
    if (metrics) grid.config.observe = true;

    exp::RunnerOptions options;
    options.threads = static_cast<int>(exp::int_flag(cli, "threads", 0));
    const exp::Runner runner(options);
    const auto sweep = runner.run(grid);

    if (!trace_dir.empty()) {
      const auto written = exp::write_cell_traces(trace_dir, sweep);
      std::cerr << "trace-out: " << written << " trace files in " << trace_dir << "\n";
    }

    exp::ReportOptions report;
    report.include_timing = cli.has("timing");
    report.include_faults = grid.config.faults.armed();
    report.include_metrics = metrics;
    // The column appears iff the grid actually sweeps or overrides the
    // topology, so pre-existing shared-only sweeps stay byte-identical.
    report.include_topology = grid.topologies.size() > 1 ||
                              grid.topologies[0] != net::TopologyKind::kShared;
    // Same non-default rule for the service columns: they appear iff the
    // grid is armed, so disarmed sweeps (fig5-8) stay byte-identical.
    report.include_service = grid.service.armed;
    const auto format = cli.get("format", "summary");
    if (format == "csv") {
      exp::write_csv(std::cout, sweep, report);
    } else if (format == "json") {
      exp::write_json(std::cout, sweep, report);
    } else if (format == "summary" && cli.get("figure", "").starts_with("table")) {
      // Tables 1-2 summarize as the actual-vs-predicted order table.
      exp::write_order_table(std::cout, exp::order_rows(grid, sweep));
    } else if (format == "summary") {
      exp::write_summary(std::cout, sweep, grid.seeds, report.include_topology,
                         report.include_service);
    } else {
      throw std::invalid_argument("dlb_sweep: --format must be summary, csv or json");
    }
    exp::write_timing(std::cerr, sweep);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dlb_sweep: " << e.what() << "\n";
    return 1;
  }
}
