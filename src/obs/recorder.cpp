#include "obs/recorder.hpp"

#include <array>
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

Recorder::Recorder() {
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

}  // namespace dlb::obs
