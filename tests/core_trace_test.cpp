#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"

namespace {

using dlb::core::ActivityKind;
using dlb::core::Trace;
using dlb::sim::from_seconds;

TEST(Trace, RecordsAndAggregates) {
  Trace t;
  t.record(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  t.record(0, ActivityKind::kSync, from_seconds(1.0), from_seconds(1.5));
  t.record(1, ActivityKind::kCompute, 0, from_seconds(2.0));
  EXPECT_EQ(t.segments().size(), 3u);
  EXPECT_EQ(t.span_end(), from_seconds(2.0));

  const auto compute = t.compute_seconds(2);
  EXPECT_DOUBLE_EQ(compute[0], 1.0);
  const auto util = t.utilization(2);
  EXPECT_DOUBLE_EQ(util[0], 0.5);
  EXPECT_DOUBLE_EQ(util[1], 1.0);
}

TEST(Trace, ZeroLengthSegmentsDropped) {
  Trace t;
  t.record(0, ActivityKind::kSync, 5, 5);
  EXPECT_TRUE(t.empty());
}

TEST(Trace, Rejections) {
  Trace t;
  EXPECT_THROW(t.record(-1, ActivityKind::kCompute, 0, 1), std::invalid_argument);
  EXPECT_THROW(t.record(0, ActivityKind::kCompute, 2, 1), std::invalid_argument);
}

TEST(Trace, GanttRendersRowsPerProcessor) {
  Trace t;
  t.record(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  t.record(1, ActivityKind::kMove, from_seconds(0.5), from_seconds(1.0));
  std::ostringstream os;
  t.render_gantt(os, 2, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("P0"), std::string::npos);
  EXPECT_NE(out.find("P1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('m'), std::string::npos);
}

TEST(Trace, GanttEmptyTrace) {
  Trace t;
  std::ostringstream os;
  t.render_gantt(os, 2, 20);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Trace, GanttDegenerateDimensions) {
  // Zero/negative rows or columns must render the placeholder, not divide by
  // the span or index an empty row.
  Trace t;
  t.record(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  for (const auto& [procs, width] : {std::pair{0, 20}, {-1, 20}, {2, 0}, {2, -5}}) {
    std::ostringstream os;
    EXPECT_NO_THROW(t.render_gantt(os, procs, width));
    EXPECT_NE(os.str().find("empty"), std::string::npos) << procs << "x" << width;
  }
}

TEST(Trace, GanttNarrowWidthsDoNotUnderflow) {
  // The footer used to build std::string(width - 4, ' ') with a size_t
  // subtraction, so widths 1..3 wrapped to ~2^64 and threw bad_alloc.
  Trace t;
  t.record(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  for (const int width : {1, 2, 3, 4}) {
    std::ostringstream os;
    EXPECT_NO_THROW(t.render_gantt(os, 2, width)) << "width " << width;
    // Each processor row must still be exactly `width` glyph columns wide.
    const std::string out = os.str();
    const auto bar0 = out.find('|');
    const auto bar1 = out.find('|', bar0 + 1);
    ASSERT_NE(bar1, std::string::npos);
    EXPECT_EQ(bar1 - bar0 - 1, static_cast<std::size_t>(width));
  }
}

TEST(Trace, GanttLabelsAlignAcrossRowCounts) {
  // Every row's '|' must sit in the same column — at 16 procs (2-digit
  // labels, the historical layout) and at 120 procs (3-digit labels, which
  // used to shear the grid).
  for (const int procs : {16, 120}) {
    Trace t;
    for (int p = 0; p < procs; ++p) {
      t.record(p, ActivityKind::kCompute, 0, from_seconds(1.0));
    }
    std::ostringstream os;
    t.render_gantt(os, procs, 10);
    const std::string out = os.str();
    std::size_t expected_col = std::string::npos;
    std::size_t line_start = 0;
    for (int p = 0; p < procs; ++p) {
      const auto line_end = out.find('\n', line_start);
      ASSERT_NE(line_end, std::string::npos);
      const std::string line = out.substr(line_start, line_end - line_start);
      EXPECT_EQ(line.find("P" + std::to_string(p)), 0u);
      const auto col = line.find('|');
      if (expected_col == std::string::npos) expected_col = col;
      EXPECT_EQ(col, expected_col) << "row P" << p << " of " << procs;
      line_start = line_end + 1;
    }
  }
}

TEST(Trace, AggregatesRejectNegativeProcs) {
  // A negative count was cast straight to size_t (a ~2^64-element vector
  // and bad_alloc); it must be diagnosed instead.
  Trace t;
  t.record(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  EXPECT_THROW((void)t.compute_seconds(-1), std::invalid_argument);
  EXPECT_THROW((void)t.utilization(-1), std::invalid_argument);
}

TEST(Trace, GanttRendersRecoverGlyph) {
  Trace t;
  t.record(0, ActivityKind::kRecover, 0, from_seconds(1.0));
  std::ostringstream os;
  t.render_gantt(os, 1, 10);
  const std::string row = os.str().substr(0, os.str().find('\n'));
  EXPECT_NE(row.find('r'), std::string::npos);
}

TEST(Trace, RecoverOutranksEveryOtherGlyph) {
  // Re-execution of a dead workstation's iterations is the rarest and most
  // interesting activity, so an overlapping recover segment must win the cell.
  for (const auto under : {ActivityKind::kCompute, ActivityKind::kSync, ActivityKind::kMove}) {
    Trace t;
    t.record(0, under, 0, from_seconds(1.0));
    t.record(0, ActivityKind::kRecover, 0, from_seconds(1.0));
    std::ostringstream os;
    t.render_gantt(os, 1, 10);
    const std::string row = os.str().substr(0, os.str().find('\n'));
    EXPECT_EQ(row.find(dlb::core::activity_glyph(under)), std::string::npos);
    EXPECT_NE(row.find('r'), std::string::npos);
  }
}

TEST(Trace, MoreSpecificGlyphWins) {
  Trace t;
  t.record(0, ActivityKind::kCompute, 0, from_seconds(1.0));
  t.record(0, ActivityKind::kMove, 0, from_seconds(1.0));
  std::ostringstream os;
  t.render_gantt(os, 1, 10);
  // First line is P0's row; the overlapping move outranks the compute there
  // (the legend below legitimately contains '#').
  const std::string row = os.str().substr(0, os.str().find('\n'));
  EXPECT_EQ(row.find('#'), std::string::npos);
  EXPECT_NE(row.find('m'), std::string::npos);
}

dlb::cluster::ClusterParams params_for(int procs) {
  dlb::cluster::ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.external_load = true;
  return p;
}

TEST(TraceIntegration, DisabledByDefault) {
  const auto app = dlb::apps::make_uniform(32, 20e3, 16.0);
  dlb::core::DlbConfig config;
  config.strategy = dlb::core::Strategy::kGDDLB;
  const auto r = dlb::core::run_app(params_for(4), app, config);
  EXPECT_EQ(r.trace, nullptr);
}

TEST(TraceIntegration, RecordsComputeAndSyncSegments) {
  const auto app = dlb::apps::make_uniform(32, 20e3, 16.0);
  dlb::core::DlbConfig config;
  config.strategy = dlb::core::Strategy::kGDDLB;
  config.record_trace = true;
  const auto r = dlb::core::run_app(params_for(4), app, config);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_FALSE(r.trace->empty());

  bool has_compute = false;
  bool has_sync = false;
  for (const auto& s : r.trace->segments()) {
    EXPECT_GE(s.begin, 0);
    EXPECT_LE(s.end, dlb::sim::from_seconds(r.exec_seconds) + 1);
    if (s.kind == ActivityKind::kCompute) has_compute = true;
    if (s.kind == ActivityKind::kSync) has_sync = true;
  }
  EXPECT_TRUE(has_compute);
  EXPECT_TRUE(has_sync);
}

TEST(TraceIntegration, ComputeTimeConsistentWithWork) {
  // Dedicated homogeneous cluster: total traced compute time equals
  // iterations x ops / rate.
  auto params = params_for(4);
  params.external_load = false;
  const auto app = dlb::apps::make_uniform(32, 20e3, 0.0);
  dlb::core::DlbConfig config;
  config.strategy = dlb::core::Strategy::kNoDlb;
  config.record_trace = true;
  const auto r = dlb::core::run_app(params, app, config);
  const auto compute = r.trace->compute_seconds(4);
  double total = 0.0;
  for (const auto c : compute) total += c;
  EXPECT_NEAR(total, 32 * 20e3 / 1e6, 1e-6);
}

TEST(TraceIntegration, NoDlbHasNoSyncSegments) {
  const auto app = dlb::apps::make_uniform(32, 20e3, 0.0);
  dlb::core::DlbConfig config;
  config.strategy = dlb::core::Strategy::kNoDlb;
  config.record_trace = true;
  const auto r = dlb::core::run_app(params_for(4), app, config);
  for (const auto& s : r.trace->segments()) {
    EXPECT_EQ(s.kind, ActivityKind::kCompute);
  }
}

}  // namespace
