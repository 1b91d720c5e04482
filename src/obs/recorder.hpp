#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dlb::obs {

/// Protocol phases a workstation can be observed in.  One span kind per
/// phase of the paper's run-time library (plus the fault layer's recovery),
/// so a Chrome trace shows *why* a processor was not computing, not just
/// that it wasn't.
enum class PhaseKind {
  kSync,        // whole synchronization round (interrupt to verdict applied)
  kProfile,     // profile exchange inside a round
  kShipment,    // shipping / collecting migrated work
  kRecovery,    // re-executing a dead workstation's iterations
  kSequential,  // inter-loop sequential phase (gather/compute/scatter)
  kChunk,       // unrecorded; its proto.chunk_seconds histogram is a column
                // of every --metrics CSV
};
inline constexpr int kPhaseKindCount = 6;
[[nodiscard]] const char* phase_name(PhaseKind k) noexcept;

/// Point events.
enum class InstantKind {
  kInterrupt,  // a finisher initiated a synchronization
  kDeath,      // workstation crashed or was revoked
  kRejoin,     // revoked workstation returned
  kRetry,      // fault-tolerant protocol retransmission
  kDrop,       // frame lost on the wire
};
[[nodiscard]] const char* instant_name(InstantKind k) noexcept;

/// What a workstation was doing during a segment of the activity log: the
/// paper's account of where each workstation's time goes.  Gaps between a
/// workstation's segments are idle time.
enum class ActivityKind {
  kCompute,  // executing loop iterations
  kSync,     // interrupt / profile exchange / waiting for the verdict
  kMove,     // shipping or receiving migrated work
  kRecover,  // reclaiming a dead workstation's iterations (fault mode)
};
/// Chrome-trace slice label for a kind ("compute", "sync", "move", "recover").
[[nodiscard]] const char* activity_name(ActivityKind k) noexcept;
/// Gantt glyph for a kind ('#', 's', 'm', 'r').
[[nodiscard]] char activity_glyph(ActivityKind k) noexcept;

struct ActivityEvent {
  int proc = 0;
  ActivityKind kind = ActivityKind::kCompute;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

struct PhaseEvent {
  int proc = 0;
  PhaseKind kind = PhaseKind::kSync;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  std::int64_t detail = 0;  // kind-specific (round, iterations, chunk size)
};

struct InstantEvent {
  int proc = 0;
  InstantKind kind = InstantKind::kInterrupt;
  sim::SimTime at = 0;
  std::int64_t detail = 0;
};

/// One frame on the wire, recorded by net::Network at send time (delivery
/// time is already decided there, so one record captures the whole flight).
struct MessageEvent {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t bytes = 0;
  sim::SimTime sent = 0;
  sim::SimTime delivered = 0;
  bool dropped = false;
};

/// Sample of a numeric series over virtual time (event-queue depth, arena
/// occupancy).  `series` must be a string literal: samples are taken on hot
/// paths and must not allocate.
struct SampleEvent {
  const char* series = "";
  sim::SimTime at = 0;
  double value = 0.0;
};

/// Deterministic per-run observability recorder: protocol phase spans,
/// point events, per-frame message records, counter samples, a metrics
/// registry and, when asked for, the activity log — everything stamped with
/// virtual time, appended in engine event order, so a recording replays
/// byte-identically at any host thread count.
///
/// Arming discipline (same bar as the fault layer): every instrumentation
/// site holds a `Recorder*` that is null when observability is off, so the
/// disarmed cost is one predicted-not-taken branch per site and the
/// simulated virtual time is untouched either way — recording never costs
/// virtual time, only host time.
class Recorder {
 public:
  /// `record_activity` gives the recorder its activity log
  /// (DlbConfig::record_trace).  Without it activity() records nothing: a
  /// --metrics sweep would otherwise keep one segment per executed
  /// iteration of every cell until the sweep ends.
  explicit Recorder(bool record_activity = false);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Appends one activity segment when the log is armed.  A zero-length
  /// segment is dropped; a negative proc or a reversed segment throws.
  void activity(int proc, ActivityKind kind, sim::SimTime begin, sim::SimTime end) {
    if (record_activity_) append_activity(proc, kind, begin, end);
  }

  void phase(int proc, PhaseKind kind, sim::SimTime begin, sim::SimTime end,
             std::int64_t detail = 0);
  void instant(int proc, InstantKind kind, sim::SimTime at, std::int64_t detail = 0);
  void message(int src, int dst, int tag, std::size_t bytes, sim::SimTime sent,
               sim::SimTime delivered, bool dropped);
  void sample(const char* series, sim::SimTime at, double value);

  [[nodiscard]] const std::vector<PhaseEvent>& phases() const noexcept { return phases_; }
  [[nodiscard]] const std::vector<InstantEvent>& instants() const noexcept { return instants_; }
  [[nodiscard]] const std::vector<MessageEvent>& messages() const noexcept { return messages_; }
  [[nodiscard]] const std::vector<SampleEvent>& samples() const noexcept { return samples_; }
  [[nodiscard]] const std::vector<ActivityEvent>& activities() const noexcept {
    return activities_;
  }

  /// Compute-only time per processor from the activity log, seconds.
  [[nodiscard]] std::vector<double> compute_seconds(int procs) const;
  /// Compute utilization per processor: compute time / the span, which runs
  /// from 0 to the latest end of any activity segment.
  [[nodiscard]] std::vector<double> utilization(int procs) const;

  /// Renders the activity log as an ASCII Gantt chart: one row per
  /// processor, `width` columns across the span; '#' compute,
  /// 's' sync, 'm' move, 'r' recover, '.' idle.  For a column covering
  /// several kinds, the most specific (r > m > s > #) wins.  Degenerate
  /// inputs (procs <= 0, width <= 0, or an empty log) render as
  /// "(empty trace)" instead of dividing by the span.
  void render_gantt(std::ostream& os, int procs, int width = 80) const;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  void append_activity(int proc, ActivityKind kind, sim::SimTime begin, sim::SimTime end);

  bool record_activity_ = false;
  std::vector<ActivityEvent> activities_;
  sim::SimTime activity_end_ = 0;
  std::vector<PhaseEvent> phases_;
  std::vector<InstantEvent> instants_;
  std::vector<MessageEvent> messages_;
  std::vector<SampleEvent> samples_;

  MetricsRegistry metrics_;
  // Cached instruments for the per-event updates.
  Counter* msg_count_ = nullptr;
  Counter* msg_bytes_ = nullptr;
  Counter* msg_dropped_ = nullptr;
  Histogram* msg_size_hist_ = nullptr;
  Histogram* phase_seconds_[kPhaseKindCount] = {};
};

}  // namespace dlb::obs
