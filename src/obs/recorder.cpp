#include "obs/recorder.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <stdexcept>
#include <string>

namespace dlb::obs {

namespace {

// Wire sizes land in one of these (control messages are ~100 B, shipments
// grow with the migrated iteration count).
constexpr std::array<double, 6> kMsgSizeBounds{64, 256, 1024, 4096, 16384, 65536};
// Virtual seconds a protocol phase may plausibly span.
constexpr std::array<double, 6> kPhaseSecondsBounds{0.001, 0.01, 0.1, 1.0, 10.0, 100.0};

}  // namespace

const char* phase_name(PhaseKind k) noexcept {
  switch (k) {
    case PhaseKind::kSync:
      return "sync";
    case PhaseKind::kProfile:
      return "profile";
    case PhaseKind::kShipment:
      return "shipment";
    case PhaseKind::kRecovery:
      return "recovery";
    case PhaseKind::kSequential:
      return "sequential";
    case PhaseKind::kChunk:
      return "chunk";
  }
  return "?";
}

const char* instant_name(InstantKind k) noexcept {
  switch (k) {
    case InstantKind::kInterrupt:
      return "interrupt";
    case InstantKind::kDeath:
      return "death";
    case InstantKind::kRejoin:
      return "rejoin";
    case InstantKind::kRetry:
      return "retry";
    case InstantKind::kDrop:
      return "drop";
  }
  return "?";
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

Recorder::Recorder(bool record_activity) : record_activity_(record_activity) {
  msg_count_ = &metrics_.counter("net.messages");
  msg_bytes_ = &metrics_.counter("net.bytes");
  msg_dropped_ = &metrics_.counter("net.dropped");
  msg_size_hist_ = &metrics_.histogram("net.msg_bytes", kMsgSizeBounds);
  for (int k = 0; k < kPhaseKindCount; ++k) {
    phase_seconds_[k] = &metrics_.histogram(
        std::string("proto.") + phase_name(static_cast<PhaseKind>(k)) + "_seconds",
        kPhaseSecondsBounds);
  }
}

void Recorder::append_activity(int proc, ActivityKind kind, sim::SimTime begin, sim::SimTime end) {
  if (proc < 0) throw std::invalid_argument("Recorder::activity: negative proc");
  if (end < begin) throw std::invalid_argument("Recorder::activity: reversed segment");
  if (end == begin) return;
  activities_.push_back({proc, kind, begin, end});
  activity_end_ = std::max(activity_end_, end);
}

void Recorder::phase(int proc, PhaseKind kind, sim::SimTime begin, sim::SimTime end,
                     std::int64_t detail) {
  phases_.push_back({proc, kind, begin, end, detail});
  phase_seconds_[static_cast<int>(kind)]->observe(sim::to_seconds(end - begin));
}

void Recorder::instant(int proc, InstantKind kind, sim::SimTime at, std::int64_t detail) {
  instants_.push_back({proc, kind, at, detail});
}

void Recorder::message(int src, int dst, int tag, std::size_t bytes, sim::SimTime sent,
                       sim::SimTime delivered, bool dropped) {
  messages_.push_back({src, dst, tag, bytes, sent, delivered, dropped});
  msg_count_->increment();
  msg_bytes_->add(static_cast<double>(bytes));
  if (dropped) msg_dropped_->increment();
  msg_size_hist_->observe(static_cast<double>(bytes));
}

void Recorder::sample(const char* series, sim::SimTime at, double value) {
  samples_.push_back({series, at, value});
}

std::vector<double> Recorder::compute_seconds(int procs) const {
  // Cast to size_t, a negative count would ask for a ~2^64 element vector.
  if (procs < 0) throw std::invalid_argument("Recorder: negative procs");
  std::vector<double> out(static_cast<std::size_t>(procs), 0.0);
  for (const auto& a : activities_) {
    if (a.kind == ActivityKind::kCompute && a.proc < procs) {
      out[static_cast<std::size_t>(a.proc)] += sim::to_seconds(a.end - a.begin);
    }
  }
  return out;
}

std::vector<double> Recorder::utilization(int procs) const {
  auto compute = compute_seconds(procs);
  const double span = sim::to_seconds(activity_end_);
  if (span <= 0.0) return std::vector<double>(static_cast<std::size_t>(procs), 0.0);
  for (auto& u : compute) u /= span;
  return compute;
}

void Recorder::render_gantt(std::ostream& os, int procs, int width) const {
  // Degenerate inputs (nothing recorded, zero rows, zero columns) all render
  // the same placeholder rather than throwing or dividing by the span.
  if (procs <= 0 || width <= 0 || activity_end_ <= 0) {
    os << "(empty trace)\n";
    return;
  }
  const auto rank = [](char g) {
    return g == 'r' ? 4 : g == 'm' ? 3 : g == 's' ? 2 : g == '#' ? 1 : 0;
  };
  // Row labels pad to the widest processor number, at least 2 digits, so
  // the bars stay aligned at any processor count.
  int label_digits = 1;
  for (int v = procs - 1; v >= 10; v /= 10) ++label_digits;
  label_digits = std::max(label_digits, 2);
  for (int p = 0; p < procs; ++p) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const auto& a : activities_) {
      if (a.proc != p) continue;
      const auto glyph = activity_glyph(a.kind);
      auto col0 = static_cast<std::int64_t>(a.begin * width / activity_end_);
      auto col1 = static_cast<std::int64_t>((a.end - 1) * width / activity_end_);
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
  // The gap is clamped: width - 4 would underflow size_t for widths 1..3.
  os << std::string(static_cast<std::size_t>(label_digits) + 3, ' ') << '0'
     << std::string(width > 4 ? static_cast<std::size_t>(width) - 4 : 1, ' ')
     << sim::to_seconds(activity_end_) << "s\n";
  os << "     ('#' compute, 's' synchronize, 'm' move work, 'r' recover, '.' idle)\n";
}

}  // namespace dlb::obs
