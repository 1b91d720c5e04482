#include "core/trace.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace dlb::core {

char activity_glyph(ActivityKind k) noexcept {
  switch (k) {
    case ActivityKind::kCompute:
      return '#';
    case ActivityKind::kSync:
      return 's';
    case ActivityKind::kMove:
      return 'm';
    case ActivityKind::kRecover:
      return 'r';
  }
  return '?';
}

const char* activity_name(ActivityKind k) noexcept {
  switch (k) {
    case ActivityKind::kCompute:
      return "compute";
    case ActivityKind::kSync:
      return "sync";
    case ActivityKind::kMove:
      return "move";
    case ActivityKind::kRecover:
      return "recover";
  }
  return "?";
}

std::vector<obs::ActivitySpan> to_activity_spans(const Trace* trace) {
  std::vector<obs::ActivitySpan> spans;
  if (trace == nullptr) return spans;
  spans.reserve(trace->segments().size());
  for (const ActivitySegment& s : trace->segments()) {
    spans.push_back({s.proc, activity_name(s.kind), s.begin, s.end});
  }
  return spans;
}

void Trace::record(int proc, ActivityKind kind, sim::SimTime begin, sim::SimTime end) {
  if (proc < 0) throw std::invalid_argument("Trace: negative proc");
  if (end < begin) throw std::invalid_argument("Trace: reversed segment");
  if (end == begin) return;
  segments_.push_back({proc, kind, begin, end});
  span_end_ = std::max(span_end_, end);
}

std::vector<double> Trace::compute_seconds(int procs) const {
  // A negative count used to be cast straight to size_t — a ~2^64 element
  // vector and a bad_alloc — instead of being diagnosed.
  if (procs < 0) throw std::invalid_argument("Trace: negative procs");
  std::vector<double> out(static_cast<std::size_t>(procs), 0.0);
  for (const auto& s : segments_) {
    if (s.kind == ActivityKind::kCompute && s.proc < procs) {
      out[static_cast<std::size_t>(s.proc)] += sim::to_seconds(s.end - s.begin);
    }
  }
  return out;
}

std::vector<double> Trace::utilization(int procs) const {
  auto compute = compute_seconds(procs);
  const double span = sim::to_seconds(span_end_);
  if (span <= 0.0) return std::vector<double>(static_cast<std::size_t>(procs), 0.0);
  for (auto& u : compute) u /= span;
  return compute;
}

void Trace::render_gantt(std::ostream& os, int procs, int width) const {
  // Degenerate inputs (nothing recorded, zero rows, zero columns) all render
  // the same placeholder rather than throwing or dividing by the span.
  if (procs <= 0 || width <= 0 || span_end_ <= 0) {
    os << "(empty trace)\n";
    return;
  }
  const auto rank = [](char g) {
    return g == 'r' ? 4 : g == 'm' ? 3 : g == 's' ? 2 : g == '#' ? 1 : 0;
  };
  // Row labels pad to the widest processor number (min 2, which keeps the
  // historical layout for procs <= 100); before, P100+ rows lost alignment.
  int label_digits = 1;
  for (int v = procs - 1; v >= 10; v /= 10) ++label_digits;
  label_digits = std::max(label_digits, 2);
  for (int p = 0; p < procs; ++p) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const auto& s : segments_) {
      if (s.proc != p) continue;
      const auto glyph = activity_glyph(s.kind);
      auto col0 = static_cast<std::int64_t>(s.begin * width / span_end_);
      auto col1 = static_cast<std::int64_t>((s.end - 1) * width / span_end_);
      col0 = std::clamp<std::int64_t>(col0, 0, width - 1);
      col1 = std::clamp<std::int64_t>(col1, col0, width - 1);
      for (std::int64_t c = col0; c <= col1; ++c) {
        if (rank(glyph) > rank(row[static_cast<std::size_t>(c)])) {
          row[static_cast<std::size_t>(c)] = glyph;
        }
      }
    }
    const std::string number = std::to_string(p);
    os << 'P' << number
       << std::string(static_cast<std::size_t>(label_digits) - number.size(), ' ') << " |" << row
       << "|\n";
  }
  // width - 4 underflowed size_t for widths 1..3 and asked for a ~2^64 char
  // string (bad_alloc); clamp the gap instead.
  os << std::string(static_cast<std::size_t>(label_digits) + 3, ' ') << '0'
     << std::string(width > 4 ? static_cast<std::size_t>(width) - 4 : 1, ' ')
     << sim::to_seconds(span_end_) << "s\n";
  os << "     ('#' compute, 's' synchronize, 'm' move work, 'r' recover, '.' idle)\n";
}

}  // namespace dlb::core
