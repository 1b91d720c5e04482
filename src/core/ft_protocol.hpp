#pragma once

#include "core/protocol.hpp"
#include "core/run_stats.hpp"
#include "fault/injector.hpp"

namespace dlb::core {

/// Tags of the fault-tolerant wire protocol.  Each group owns a contiguous
/// block of kFtTagStride tags so a range receive never steals another
/// group's traffic — two protocol processes can share one station (e.g. a
/// recovery slave recruited next to a regular slave) without interference.
inline constexpr int kFtTagBase = 200;
inline constexpr int kFtTagStride = 8;
/// Offsets within a group's tag block.
inline constexpr int kFtOffInterrupt = 0;  // "synchronize round r" / re-ping
inline constexpr int kFtOffOutcome = 1;    // coordinator verdict
inline constexpr int kFtOffWork = 2;       // work shipment (acked)
inline constexpr int kFtOffAck = 3;        // shipment acknowledgement
inline constexpr int kFtOffHeartbeat = 4;  // liveness beacon
inline constexpr int kFtOffProfile = 5;    // profile (distributed strategies)
/// Centralized strategies send profiles here instead (one tag per group), so
/// the balancer can wait on all groups at once without overlapping the
/// per-group slave blocks shared by a collocated compute slave.
inline constexpr int kFtCentralProfileBase = 4000;

[[nodiscard]] constexpr int ft_tag(int group, int offset) noexcept {
  return kFtTagBase + group * kFtTagStride + offset;
}

/// Executes one load-balanced loop under an armed fault plan, on the context
/// the Runtime built: alive-only initial partition, ack/retry on every
/// profile and work shipment, heartbeat-driven early failure detection,
/// deterministic coordinator failover (lowest surviving rank), and
/// re-execution of dead workstations' iterations.  Throws std::logic_error
/// if the run violates exactly-once coverage — that check is the acceptance
/// oracle, not an assertion of convenience.  The injector's death handler
/// (Runtime installs one) powers a dead station off and flushes its mailbox;
/// the loop chains its own bookkeeping after it and restores it on exit.
[[nodiscard]] LoopRunStats run_ft_loop(LoopContext& ctx, fault::FaultInjector& injector,
                                       int loop_index);

}  // namespace dlb::core
