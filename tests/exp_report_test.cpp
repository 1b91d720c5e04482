// Report metric columns and the per-cell Chrome trace export: both are
// deterministic extensions of the sweep output, so the properties here are
// (a) canonical column/file layout, (b) byte-identity across thread counts,
// (c) disarmed runs are unchanged, and (d) the JSON stays parseable even
// for non-finite values.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/synthetic.hpp"
#include "core/ft_protocol.hpp"
#include "core/protocol.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_export.hpp"
#include "support/cli.hpp"

namespace {

using dlb::exp::CellResult;
using dlb::exp::ExperimentGrid;
using dlb::exp::ReportOptions;
using dlb::exp::Runner;
using dlb::exp::RunnerOptions;
using dlb::exp::SweepResult;

ExperimentGrid small_grid(bool observe, bool record_trace = false) {
  ExperimentGrid grid;
  dlb::exp::AppSpec uniform;
  uniform.name = "uniform[iters=32]";
  uniform.app = dlb::apps::make_uniform(32, 20e3, 16.0);
  uniform.calibration = {1e6, 0.5};
  grid.apps.push_back(std::move(uniform));
  grid.procs = {4};
  grid.strategies = {dlb::core::Strategy::kGDDLB};
  grid.max_loads = {5};
  grid.seeds = 2;
  grid.seed0 = 41000;
  grid.config.observe = observe;
  grid.config.record_trace = record_trace;
  return grid;
}

std::string csv_of(const SweepResult& sweep, const ReportOptions& options) {
  std::ostringstream os;
  dlb::exp::write_csv(os, sweep, options);
  return os.str();
}

std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

TEST(ExpReportMetrics, DisarmedCellsCarryNoMetrics) {
  const auto sweep = Runner::run_serial(small_grid(false));
  for (const auto& c : sweep.cells) {
    EXPECT_EQ(c.result.obs, nullptr);
    EXPECT_TRUE(c.result.metrics.empty());
  }
  // include_metrics on a disarmed sweep is a no-op: the union is empty.
  ReportOptions with_metrics;
  with_metrics.include_metrics = true;
  EXPECT_EQ(csv_of(sweep, with_metrics), csv_of(sweep, ReportOptions{}));
}

TEST(ExpReportMetrics, DisarmedOutputUnchangedByObservability) {
  // The recorder must not consume virtual time, so the base result columns
  // of an observed sweep are byte-identical to the disarmed sweep's.
  const auto plain = csv_of(Runner::run_serial(small_grid(false)), ReportOptions{});
  const auto observed = csv_of(Runner::run_serial(small_grid(true)), ReportOptions{});
  EXPECT_EQ(plain, observed);
}

TEST(ExpReportMetrics, MetricColumnsAreCanonicalAndSorted) {
  const auto sweep = Runner::run_serial(small_grid(true));
  ReportOptions options;
  options.include_metrics = true;
  const auto csv = csv_of(sweep, options);
  const auto header = first_line(csv);
  // Spot-check the registered families; full bucket layout is covered by
  // the obs metrics tests.
  for (const auto* name : {"engine.events", "engine.peak_queue", "net.messages", "net.bytes",
                           "net.msg_bytes.le_64", "net.msg_bytes.le_inf", "net.msg_bytes.count",
                           "proto.sync_seconds.count", "proto.interrupts"}) {
    EXPECT_NE(header.find(name), std::string::npos) << name;
  }
  // Sorted union: engine.* precedes net.*, which precedes proto.*.
  EXPECT_LT(header.find("engine.events"), header.find("net.bytes"));
  EXPECT_LT(header.find("net.bytes"), header.find("proto.interrupts"));
  // Armed cells actually moved data through the instrumented network path.
  for (const auto& c : sweep.cells) {
    ASSERT_NE(c.result.obs, nullptr);
    EXPECT_GT(c.result.metrics.value_of("net.messages"), 0.0);
    EXPECT_DOUBLE_EQ(c.result.metrics.value_of("net.messages"),
                     static_cast<double>(c.result.messages));
    EXPECT_GT(c.result.metrics.value_of("engine.events"), 0.0);
  }
}

TEST(ExpReportMetrics, MetricBytesIdenticalAcrossThreadCounts) {
  const auto grid = small_grid(true, true);
  ReportOptions options;
  options.include_metrics = true;
  RunnerOptions one;
  one.threads = 1;
  RunnerOptions two;
  two.threads = 2;
  RunnerOptions eight;
  eight.threads = 8;
  const auto csv1 = csv_of(Runner(one).run(grid), options);
  ASSERT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv_of(Runner(two).run(grid), options));
  EXPECT_EQ(csv1, csv_of(Runner(eight).run(grid), options));
}

TEST(ExpReportJson, NonFiniteValuesBecomeNull) {
  // "inf"/"nan" are not JSON; a cell with a degenerate result must not make
  // the whole document unparseable.
  auto sweep = Runner::run_serial(small_grid(false));
  sweep.cells[0].result.exec_seconds = std::numeric_limits<double>::infinity();
  sweep.cells[1].result.exec_seconds = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream os;
  dlb::exp::write_json(os, sweep, ReportOptions{});
  const auto json = os.str();
  EXPECT_NE(json.find("\"exec_seconds\": null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ExpGrid, ListFlagsRejectTrailingJunk) {
  // std::stoi/stod swallow trailing junk, so "--procs=4x" used to run a
  // P=4 grid; list items must be fully consumed like scalar flags.
  for (const char* arg : {"--procs=4x", "--tl=2.0s", "--max-load=fi5ve"}) {
    const char* argv[] = {"prog", arg};
    const dlb::support::Cli cli(2, argv);
    EXPECT_THROW((void)dlb::exp::parse_grid(cli), std::invalid_argument) << arg;
  }
  const char* argv[] = {"prog", "--procs=4,16", "--tl=2,16"};
  const dlb::support::Cli cli(3, argv);
  const auto grid = dlb::exp::parse_grid(cli);
  EXPECT_EQ(grid.procs, (std::vector<int>{4, 16}));
  EXPECT_EQ(grid.tl_seconds, (std::vector<double>{2.0, 16.0}));
}

ExperimentGrid parse(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "prog");
  std::vector<const char*> argv;
  for (const auto& f : flags) argv.push_back(f.c_str());
  const dlb::support::Cli cli(static_cast<int>(argv.size()), argv.data());
  return dlb::exp::parse_grid(cli);
}

TEST(ExpGrid, PresetsRejectFlagsTheyDoNotRead) {
  const std::vector<std::vector<std::string>> cases{
      {"--figure=5", "--procs=16"},
      {"--figure=5", "--strategies=gc"},
      {"--figure=6", "--tl=2"},
      {"--figure=7", "--max-load=1"},
      {"--figure=8", "--loop=0"},
      {"--figure=5", "--app=trfd"},
      {"--figure=5", "--R=800"},
      {"--figure=table1", "--procs=4"},
      {"--figure=table2", "--loop=1"},
      {"--figure=table2", "--n=40"},
      {"--figure=scale", "--app=trfd"},
      {"--figure=scale", "--tl=2"},
      {"--figure=scale", "--max-load=1"},
      {"--figure=scale", "--loop=0"},
      {"--figure=service", "--app=mxm"},
      {"--figure=service", "--tl=2"},
      {"--figure=service", "--max-load=1"},
      {"--figure=service", "--loop=0"},
      {"--figure=service", "--iters-per-proc=8"},
      {"--app=mxm", "--iters-per-proc=8"},
  };
  for (const auto& flags : cases) {
    SCOPED_TRACE(flags[0] + " " + flags[1]);
    try {
      (void)parse(flags);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const auto name = flags[1].substr(0, flags[1].find('='));
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
  // One error names every flag the grid would have ignored.
  try {
    (void)parse({"--figure=5", "--procs=16", "--strategies=gc", "--tl=2", "--max-load=1",
                 "--loop=0", "--app=trfd"});
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    for (const char* name : {"--procs", "--strategies", "--tl", "--max-load", "--loop", "--app"}) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

TEST(ExpGrid, PresetsAcceptTheFlagsTheyRead) {
  const std::vector<std::vector<std::string>> cases{
      {"--figure=5", "--seeds=5", "--seed0=2000", "--faults=crash-loss"},
      {"--figure=table1", "--seeds=2", "--topology=switched", "--rack-size=2", "--shards=2"},
      {"--figure=scale", "--topology=switched", "--strategies=lc", "--procs=256",
       "--iters-per-proc=8", "--ops=1000", "--bytes=8"},
      {"--figure=service", "--arrivals=poisson", "--rate=0.9", "--strategies=gd,online",
       "--jobs=500", "--service-backend=sim", "--procs=4", "--hysteresis=0.1,2",
       "--load-variants=2", "--mix=hetero"},
      {"--app=mxm,trfd,uniform", "--procs=4", "--strategies=all", "--tl=2", "--max-load=5",
       "--loop=0", "--R=40", "--C=40", "--R2=40", "--n=8", "--iters=10", "--ops=1",
       "--bytes=1"},
  };
  for (const auto& flags : cases) {
    SCOPED_TRACE(flags[0]);
    EXPECT_NO_THROW((void)parse(flags));
  }
}

TEST(ExpGrid, IntegerFlagsRejectOutOfRange) {
  // Cli::get_int yields a long; a bare cast to the field's type would wrap
  // 4294967297 to 1 and -1 to 2^64 - 1 jobs.
  const std::vector<std::vector<std::string>> cases{
      {"--seeds=4294967297"},
      {"--figure=scale", "--shards=4294967297"},
      {"--figure=service", "--jobs=-1"},
      {"--figure=service", "--load-variants=4294967297"},
  };
  for (const auto& flags : cases) {
    const auto& bad = flags.back();
    SCOPED_TRACE(bad);
    try {
      (void)parse(flags);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const auto name = bad.substr(0, bad.find('='));
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

TEST(ExpGrid, TablePresetsRankEveryShapeAtBothSizes) {
  const auto table1 = parse({"--figure=table1"});
  EXPECT_EQ(table1.procs, (std::vector<int>{4, 16}));
  EXPECT_EQ(table1.strategies, dlb::exp::parse_strategies("ranked"));
  EXPECT_EQ(table1.seeds, 3);
  ASSERT_EQ(table1.apps.size(), 4u);
  // R = 100·P or 200·P: the last shape (R/P = 200) at P = 16 has R = 3200.
  const auto last = table1.cell(table1.cell_count() - 1);
  EXPECT_EQ(last.params.procs, 16);
  ASSERT_TRUE(last.app_override.has_value());
  EXPECT_EQ(last.app_override->loops[0].iterations, 3200);
  EXPECT_EQ(last.params.base_ops_per_sec, dlb::apps::kMxmCalibration.base_ops_per_sec);

  const auto table2 = parse({"--figure=table2"});
  EXPECT_EQ(table2.procs, (std::vector<int>{4, 16}));
  ASSERT_EQ(table2.apps.size(), 6u);
  for (const auto& app : table2.apps) {
    EXPECT_EQ(app.app.loops.size(), 1u) << app.name;
    EXPECT_TRUE(app.app.phases.empty()) << app.name;
  }
  EXPECT_EQ(table2.apps[0].name, "trfd[n=30,L1]");
  EXPECT_EQ(table2.apps[1].app.loops[0].name, "trfd-l2");
}

/// uniform app under two strategies at P = 8 and 4, one seed.
ExperimentGrid two_size_grid(const char* strategies) {
  auto grid = small_grid(false);
  grid.procs = {8, 4};
  grid.strategies = dlb::exp::parse_strategies(strategies);
  grid.seeds = 1;
  return grid;
}

TEST(ExpReport, SummaryNormalizesToNoDlbWhenSwept) {
  const auto with = two_size_grid("gd,nodlb");
  std::ostringstream os;
  dlb::exp::write_summary(os, Runner(RunnerOptions{}).run(with), with.seeds);
  const std::string text = os.str();
  EXPECT_NE(text.find("vs NoDLB"), std::string::npos);
  EXPECT_NE(text.find(",normalized_exec,"), std::string::npos);
  // NoDLB sits after GD on the axis; its own row still normalizes to 1.
  EXPECT_NE(text.find("NoDLB,0.5,5,"), std::string::npos);
  EXPECT_NE(text.find(",1,0,0\n"), std::string::npos) << text;

  const auto without = two_size_grid("gd,ld");
  std::ostringstream os2;
  dlb::exp::write_summary(os2, Runner(RunnerOptions{}).run(without), without.seeds);
  EXPECT_EQ(os2.str().find("normalized"), std::string::npos);
}

TEST(ExpReport, OrderRowsRankEachPointByAscendingP) {
  const auto grid = two_size_grid("ranked");
  const auto rows = dlb::exp::order_rows(grid, Runner(RunnerOptions{}).run(grid));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].procs, 4);
  EXPECT_EQ(rows[1].procs, 8);
  for (const auto& row : rows) {
    auto actual = row.actual;
    auto predicted = row.predicted;
    std::sort(actual.begin(), actual.end());
    std::sort(predicted.begin(), predicted.end());
    EXPECT_EQ(actual, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(predicted, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_GE(row.kendall_tau, -1.0);
    EXPECT_LE(row.kendall_tau, 1.0);
  }
  std::ostringstream os;
  dlb::exp::write_order_table(os, rows);
  EXPECT_NE(os.str().find("mean kendall tau = "), std::string::npos);
  EXPECT_NE(os.str().find("/2\n"), std::string::npos);

  const auto unranked = two_size_grid("nodlb,gd");
  EXPECT_THROW((void)dlb::exp::order_rows(unranked, Runner(RunnerOptions{}).run(unranked)),
               std::invalid_argument);
}

TEST(ExpTraceExport, FileNamesAreDeterministic) {
  const auto grid = small_grid(true, true);
  const auto spec = grid.cell(1);
  EXPECT_EQ(dlb::exp::trace_file_name(spec),
            "cell-000001-uniform-iters-32-p4-GD-s41001.json");
}

TEST(ExpTraceExport, TagNamerCoversTheWireProtocol) {
  EXPECT_EQ(dlb::exp::dlb_tag_name(dlb::core::kTagProfile), "profile");
  EXPECT_EQ(dlb::exp::dlb_tag_name(dlb::core::kTagWork), "work");
  EXPECT_EQ(dlb::exp::dlb_tag_name(dlb::core::kFtTagBase + dlb::core::kFtTagStride +
                                   dlb::core::kFtOffAck),
            "ft ack g1");
  EXPECT_EQ(dlb::exp::dlb_tag_name(dlb::core::kFtCentralProfileBase + 2), "ft profile g2");
  EXPECT_EQ(dlb::exp::dlb_tag_name(50), "");  // exporter falls back to "tag 50"
}

TEST(ExpTraceExport, TraceFilesAreByteIdenticalAcrossThreadCounts) {
  const auto grid = small_grid(true, true);
  const auto dir_for = [](int threads) {
    return std::filesystem::path(testing::TempDir()) /
           ("dlb_trace_export_t" + std::to_string(threads));
  };
  const auto read_all = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  for (const int threads : {1, 2, 8}) {
    RunnerOptions options;
    options.threads = threads;
    const auto sweep = Runner(options).run(grid);
    std::filesystem::remove_all(dir_for(threads));
    EXPECT_EQ(dlb::exp::write_cell_traces(dir_for(threads).string(), sweep), 2u);
  }

  const auto grid_spec0 = grid.cell(0);
  const auto grid_spec1 = grid.cell(1);
  for (const auto& spec : {grid_spec0, grid_spec1}) {
    const auto name = dlb::exp::trace_file_name(spec);
    const auto baseline = read_all(dir_for(1) / name);
    ASSERT_FALSE(baseline.empty()) << name;
    // Activity slices, protocol phases and flow arrows all made it in.
    EXPECT_NE(baseline.find("\"cat\":\"activity\""), std::string::npos);
    EXPECT_NE(baseline.find("\"cat\":\"protocol\""), std::string::npos);
    EXPECT_NE(baseline.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(baseline.find("\"workstation 3\""), std::string::npos);
    EXPECT_EQ(baseline, read_all(dir_for(2) / name)) << name;
    EXPECT_EQ(baseline, read_all(dir_for(8) / name)) << name;
  }
  for (const int threads : {1, 2, 8}) std::filesystem::remove_all(dir_for(threads));
}

TEST(ExpTraceExport, CellsWithoutRecordingAreSkipped) {
  const auto sweep = Runner::run_serial(small_grid(false));
  const auto dir =
      std::filesystem::path(testing::TempDir()) / "dlb_trace_export_disarmed";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(dlb::exp::write_cell_traces(dir.string(), sweep), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
