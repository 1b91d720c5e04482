// Service-mode grids through the exp layer: flag parsing and axis decode,
// the non-default column rule (disarmed sweeps keep the exact pre-service
// header), and byte-identity of the armed CSV across thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "fault/plan.hpp"
#include "support/cli.hpp"

namespace {

using dlb::core::Strategy;
using dlb::exp::ExperimentGrid;
using dlb::exp::parse_grid;
using dlb::exp::ReportOptions;
using dlb::exp::Runner;
using dlb::exp::RunnerOptions;
using dlb::exp::SweepResult;

ExperimentGrid grid_from(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "dlb_sweep");
  std::vector<const char*> argv;
  argv.reserve(flags.size());
  for (const auto& f : flags) argv.push_back(f.c_str());
  const dlb::support::Cli cli(static_cast<int>(argv.size()), argv.data());
  return parse_grid(cli);
}

/// A service grid small enough to execute in tests; the defaults (1M jobs)
/// are the acceptance scale, not the unit-test scale.
ExperimentGrid small_service_grid(const std::string& extra = "") {
  std::vector<std::string> flags{"--figure=service", "--jobs=400",
                                 "--rate=0.5,0.9",   "--arrivals=poisson",
                                 "--procs=4",        "--strategies=gd,online",
                                 "--load-variants=2"};
  if (!extra.empty()) flags.push_back(extra);
  return grid_from(flags);
}

TEST(ServiceGrid, PresetDefaults) {
  const ExperimentGrid grid = grid_from({"--figure=service"});
  EXPECT_TRUE(grid.service.armed);
  EXPECT_EQ(grid.service.params.jobs, 1'000'000u);
  EXPECT_EQ(grid.service.arrivals.size(), 2u);  // poisson, bursty
  EXPECT_EQ(grid.service.rhos.size(), 6u);
  EXPECT_EQ(grid.strategies.size(), 5u);  // gc,gd,lc,ld,online
  EXPECT_EQ(grid.strategies.back(), Strategy::kAuto);
  EXPECT_EQ(grid.procs, std::vector<int>{16});
  grid.validate();
  EXPECT_EQ(grid.cell_count(), 2u * 6u * 5u);
}

TEST(ServiceGrid, FlagFamilyRefinesThePreset) {
  const ExperimentGrid grid = small_service_grid("--hysteresis=0.1,5");
  EXPECT_EQ(grid.service.params.jobs, 400u);
  EXPECT_DOUBLE_EQ(grid.service.params.hysteresis.margin, 0.1);
  EXPECT_EQ(grid.service.params.hysteresis.k, 5);
  EXPECT_EQ(grid.service.params.load_variants, 2);
  ASSERT_EQ(grid.service.rhos.size(), 2u);
  EXPECT_DOUBLE_EQ(grid.service.rhos[0], 0.5);
  EXPECT_DOUBLE_EQ(grid.service.rhos[1], 0.9);
}

TEST(ServiceGrid, ServiceFlagsAreRejectedOutsideServiceFigures) {
  const auto expect_rejected = [](const std::string& grid, const std::string& flag) {
    SCOPED_TRACE(grid + " " + flag);
    try {
      (void)grid_from({grid, flag});
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag.substr(0, flag.find('='))), std::string::npos)
          << e.what();
    }
  };
  // Every other grid: the custom grid (no --figure) and each other preset.
  std::vector<std::string> grids{"--app=mxm"};
  for (const char* figure : {"5", "6", "7", "8", "table1", "table2", "scale"}) {
    grids.push_back(std::string("--figure=") + figure);
  }
  for (const auto& grid : grids) {
    for (const char* flag : {"--arrivals=poisson", "--rate=0.5", "--jobs=100", "--mix=hetero"}) {
      expect_rejected(grid, flag);
    }
    for (const char* flag : {"--hysteresis=0.1,2", "--load-variants=2", "--service-backend=sim"}) {
      expect_rejected(grid, flag);
    }
  }
}

TEST(ServiceGrid, OnlineStrategyRequiresAServiceGrid) {
  EXPECT_THROW((void)grid_from({"--app=mxm", "--strategies=gd,online"}),
               std::invalid_argument);
}

// dlb_sweep sets record_trace after parsing (--trace-out), so the rejection
// that holds for it is the one Runner::run makes when it validates the grid.
TEST(ServiceGrid, RunnerRejectsTracesAndFaultPlans) {
  ExperimentGrid tracing = small_service_grid();
  tracing.config.record_trace = true;
  tracing.config.observe = true;
  EXPECT_THROW((void)Runner(RunnerOptions{}).run(tracing), std::invalid_argument);

  ExperimentGrid faulty = small_service_grid();
  faulty.config.faults = dlb::fault::FaultPlan::preset("crash-half");
  ASSERT_TRUE(faulty.config.faults.armed());
  EXPECT_THROW((void)Runner(RunnerOptions{}).run(faulty), std::invalid_argument);
}

TEST(ServiceGrid, UnknownArrivalAndBackendThrow) {
  EXPECT_THROW((void)grid_from({"--figure=service", "--arrivals=uniform"}),
               std::invalid_argument);
  EXPECT_THROW((void)grid_from({"--figure=service", "--service-backend=magic"}),
               std::invalid_argument);
  EXPECT_THROW((void)grid_from({"--figure=service", "--rate=0"}), std::invalid_argument);
  EXPECT_THROW((void)grid_from({"--figure=service", "--rate=1.5"}), std::invalid_argument);
  // Settings a service set-up would reject fail at parse time, before any
  // cell runs.
  EXPECT_THROW((void)grid_from({"--figure=service", "--load-variants=0"}),
               std::invalid_argument);
  EXPECT_THROW((void)grid_from({"--figure=service", "--mix=hetero", "--service-backend=sim"}),
               std::invalid_argument);
}

TEST(ServiceGrid, CellDecodePutsArrivalsOutsideRho) {
  ExperimentGrid grid = grid_from({"--figure=service", "--arrivals=poisson,bursty",
                                   "--rate=0.3,0.9", "--strategies=gd", "--jobs=100"});
  ASSERT_EQ(grid.cell_count(), 4u);
  const char* want_arrival[] = {"poisson", "poisson", "bursty", "bursty"};
  const double want_rho[] = {0.3, 0.9, 0.3, 0.9};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto cell = grid.cell(i);
    ASSERT_TRUE(cell.service.has_value());
    EXPECT_STREQ(dlb::svc::arrival_name(cell.service->arrival), want_arrival[i]) << i;
    EXPECT_DOUBLE_EQ(cell.service->rho, want_rho[i]) << i;
    EXPECT_FALSE(cell.service->online);  // gd is a fixed strategy
  }
}

TEST(ServiceGrid, OnlineCellsResolveToTheSelector) {
  ExperimentGrid grid = small_service_grid();
  bool saw_online = false;
  for (std::size_t i = 0; i < grid.cell_count(); ++i) {
    const auto cell = grid.cell(i);
    if (cell.config.strategy == Strategy::kAuto) {
      EXPECT_TRUE(cell.service->online);
      saw_online = true;
    }
  }
  EXPECT_TRUE(saw_online);
}

// The column rule: a disarmed sweep's CSV header is the exact pre-service
// string — the byte-identity contract for the fig5-8 baselines.
TEST(ServiceReport, DisarmedHeaderIsThePreServiceGolden) {
  const ExperimentGrid grid =
      grid_from({"--app=uniform", "--iters=32", "--procs=4", "--strategies=gd"});
  EXPECT_FALSE(grid.service.armed);
  const Runner runner(RunnerOptions{});
  const SweepResult sweep = runner.run(grid);
  std::ostringstream csv;
  dlb::exp::write_csv(csv, sweep, ReportOptions{});
  const std::string header = csv.str().substr(0, csv.str().find('\n'));
  EXPECT_EQ(header,
            "app,procs,strategy,tl_seconds,max_load,seed,exec_seconds,syncs,"
            "redistributions,iterations_moved,messages,bytes");
}

TEST(ServiceReport, ArmedHeaderAddsIdentityAndSlaColumns) {
  const ExperimentGrid grid = small_service_grid();
  const Runner runner(RunnerOptions{});
  const SweepResult sweep = runner.run(grid);
  ReportOptions options;
  options.include_service = true;
  std::ostringstream csv;
  dlb::exp::write_csv(csv, sweep, options);
  const std::string header = csv.str().substr(0, csv.str().find('\n'));
  EXPECT_EQ(header,
            "app,procs,arrivals,rate,strategy,tl_seconds,max_load,seed,exec_seconds,"
            "syncs,redistributions,iterations_moved,messages,bytes,jobs,"
            "rate_jobs_per_sec,throughput_jobs_per_sec,utilization,"
            "p50_sojourn_seconds,p99_sojourn_seconds,p999_sojourn_seconds,"
            "mean_sojourn_seconds,mean_service_seconds,mean_wait_seconds,"
            "strategy_switches");
  // Strategy::kAuto rows print as "online".
  EXPECT_NE(csv.str().find(",online,"), std::string::npos);
}

TEST(ServiceReport, CsvIsByteIdenticalAcrossThreadCounts) {
  const ExperimentGrid grid = small_service_grid();
  ReportOptions options;
  options.include_service = true;
  std::string reference;
  for (const int threads : {1, 2, 8}) {
    RunnerOptions ro;
    ro.threads = threads;
    const Runner runner(ro);
    const SweepResult sweep = runner.run(grid);
    std::ostringstream csv;
    dlb::exp::write_csv(csv, sweep, options);
    if (reference.empty()) {
      reference = csv.str();
    } else {
      EXPECT_EQ(csv.str(), reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ServiceGrid, SharedSetupMatchesPerCellSetup) {
  // Runner::run builds one prediction table per distinct set-up key and
  // shares it across the cells that read it; run_serial's cells each build
  // their own.  The model grid has four keys (two P x two seeds) under
  // arrival, rate and strategy axes; the sim grid two.  Every width and
  // submission order must print run_serial's bytes.
  ReportOptions options;
  options.include_service = true;
  const auto csv_of = [&options](const SweepResult& sweep) {
    std::ostringstream csv;
    dlb::exp::write_csv(csv, sweep, options);
    return csv.str();
  };
  const ExperimentGrid model = grid_from(
      {"--figure=service", "--procs=4,16", "--seeds=2", "--mix=hetero", "--jobs=300",
       "--rate=0.5,0.9", "--arrivals=poisson,bursty", "--strategies=gc,ld,online",
       "--load-variants=3"});
  const ExperimentGrid sim =
      grid_from({"--figure=service", "--service-backend=sim", "--procs=4", "--seeds=2",
                 "--jobs=20", "--rate=0.5,0.9", "--arrivals=poisson", "--strategies=gd,online",
                 "--load-variants=2"});
  for (const ExperimentGrid* grid : {&model, &sim}) {
    const std::string reference = csv_of(Runner::run_serial(*grid));
    for (const int threads : {1, 4}) {
      RunnerOptions ro;
      ro.threads = threads;
      ro.shuffle_submission = true;
      ro.shuffle_seed = 7;
      EXPECT_EQ(csv_of(Runner(ro).run(*grid)), reference)
          << "threads=" << threads << " cells=" << grid->cell_count();
    }
  }
}

TEST(ServiceReport, SimBackendCsvIsByteIdenticalAcrossShardCounts) {
  // Four racks of four: at --shards=2 and 4 every admission and every idle
  // advance of the persistent sim-backend cluster runs as conservative
  // windows, and the report must still be the unsharded one byte for byte.
  ReportOptions options;
  options.include_service = true;
  std::string reference;
  for (const char* shards : {"--shards=1", "--shards=2", "--shards=4"}) {
    const ExperimentGrid grid = grid_from({"--figure=service", "--service-backend=sim",
                                           "--topology=switched", "--rack-size=4", "--procs=16",
                                           "--jobs=25", "--rate=0.5", "--arrivals=bursty",
                                           "--strategies=gc,ld,online", shards});
    RunnerOptions ro;
    ro.threads = 2;
    const SweepResult sweep = Runner(ro).run(grid);
    std::ostringstream csv;
    dlb::exp::write_csv(csv, sweep, options);
    if (reference.empty()) {
      reference = csv.str();
    } else {
      EXPECT_EQ(csv.str(), reference) << shards;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ServiceReport, SummaryAggregatesServiceColumns) {
  const ExperimentGrid grid = small_service_grid();
  const Runner runner(RunnerOptions{});
  const SweepResult sweep = runner.run(grid);
  std::ostringstream out;
  dlb::exp::write_summary(out, sweep, grid.seeds, /*include_topology=*/false,
                          /*include_service=*/true);
  const std::string text = out.str();
  EXPECT_NE(text.find("p99 [s]"), std::string::npos);
  EXPECT_NE(text.find("mean_p99_sojourn_seconds"), std::string::npos);
  EXPECT_NE(text.find("online"), std::string::npos);
  EXPECT_NE(text.find("arrivals"), std::string::npos);
}

TEST(ServiceReport, JsonQuotesTheArrivalLabel) {
  const ExperimentGrid grid = small_service_grid();
  const Runner runner(RunnerOptions{});
  const SweepResult sweep = runner.run(grid);
  ReportOptions options;
  options.include_service = true;
  std::ostringstream json;
  dlb::exp::write_json(json, sweep, options);
  EXPECT_NE(json.str().find("\"arrivals\": \"poisson\""), std::string::npos);
}

}  // namespace
