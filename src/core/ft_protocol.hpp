#pragma once

#include "core/protocol.hpp"
#include "core/run_stats.hpp"
#include "fault/injector.hpp"

namespace dlb::core {

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
