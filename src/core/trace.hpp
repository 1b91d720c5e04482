#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "sim/time.hpp"

namespace dlb::core {

/// What a processor was doing during a recorded interval.
enum class ActivityKind {
  kCompute,  // executing loop iterations
  kSync,     // interrupt / profile exchange / waiting for the verdict
  kMove,     // shipping or receiving migrated work
  kRecover,  // reclaiming a dead workstation's iterations (fault mode)
};

[[nodiscard]] char activity_glyph(ActivityKind k) noexcept;
/// Chrome-trace slice label for a kind ("compute", "sync", "move", "recover").
[[nodiscard]] const char* activity_name(ActivityKind k) noexcept;

struct ActivitySegment {
  int proc = 0;
  ActivityKind kind = ActivityKind::kCompute;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

/// Execution trace of one run: per-processor activity segments, recorded by
/// the protocols when DlbConfig::record_trace is set.  Gaps between segments
/// are idle time.  Used by the timeline example and the utilization
/// analyses; deliberately simulation-agnostic (plain begin/end intervals).
class Trace {
 public:
  void record(int proc, ActivityKind kind, sim::SimTime begin, sim::SimTime end);

  [[nodiscard]] const std::vector<ActivitySegment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }
  [[nodiscard]] sim::SimTime span_end() const noexcept { return span_end_; }

  /// Compute-only time per processor, seconds.
  [[nodiscard]] std::vector<double> compute_seconds(int procs) const;
  /// Compute utilization per processor: compute time / trace span.
  [[nodiscard]] std::vector<double> utilization(int procs) const;

  /// Renders an ASCII Gantt chart: one row per processor, `width` columns
  /// spanning [0, span_end]; '#' compute, 's' sync, 'm' move, 'r' recover,
  /// '.' idle.  For a column covering several kinds, the most specific
  /// (r > m > s > #) wins.  Degenerate inputs (procs <= 0, width <= 0, or an
  /// empty span) render as "(empty trace)" instead of dividing by the span.
  void render_gantt(std::ostream& os, int procs, int width = 80) const;

 private:
  std::vector<ActivitySegment> segments_;
  sim::SimTime span_end_ = 0;
};

/// Projects a Trace onto the layer-neutral spans obs::write_chrome_trace
/// consumes (obs sits below core, so the conversion lives here).  A null
/// trace projects to an empty vector.
[[nodiscard]] std::vector<obs::ActivitySpan> to_activity_spans(const Trace* trace);

}  // namespace dlb::core
